package server

// sessions_test.go covers the live-telemetry surface end to end over
// real HTTP: streaming simulate sessions, the session listing, the
// attach/resume endpoint, the stream capacity gate, and the
// stream-vs-oneshot equivalence that makes the telemetry honest.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"xtreesim/internal/bintree"
	"xtreesim/internal/core"
	"xtreesim/internal/netsim"
	"xtreesim/internal/race"
	"xtreesim/internal/telemetry"
)

// streamSimulate posts a streaming simulate request and decodes every
// NDJSON line, failing the test on any undecodable line.
func streamSimulate(t *testing.T, url string, req SimulateRequest) (http.Header, []telemetry.Event) {
	t.Helper()
	raw, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/simulate?stream=1", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	return resp.Header, decodeStream(t, resp.Body)
}

func decodeStream(t *testing.T, r io.Reader) []telemetry.Event {
	t.Helper()
	events, err := readEvents(r)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// readEvents decodes NDJSON events up to EOF or the first bad line.
func readEvents(r io.Reader) ([]telemetry.Event, error) {
	var events []telemetry.Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		e, err := telemetry.DecodeEvent(sc.Bytes())
		if err != nil {
			return events, fmt.Errorf("stream line %q: %w", sc.Text(), err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return events, fmt.Errorf("stream read: %w", err)
	}
	return events, nil
}

func countTypes(events []telemetry.Event) map[string]int {
	n := make(map[string]int)
	for _, e := range events {
		n[e.Type]++
	}
	return n
}

// get fetches url and decodes the JSON body into v.
func get(t *testing.T, url string, v interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

var streamReq = SimulateRequest{
	Tree:     &TreeSpec{Family: "random", N: 200, Seed: Seed(7)},
	Workload: WorkloadDivideConquer,
	// Link drops with generous retries: faulty but still completing, so
	// the stream always ends in a result event.
	Faults: &FaultSpec{Seed: 3, DropProb: 0.05, MaxRetries: 20},
}

// TestSimulateStream pins the stream shape of a fault-injected run:
// start first, per-cycle events, fault events, the result last, clean
// EOF — and counters byte-identical to the one-shot response.
func TestSimulateStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Reference: the same request, not streamed.
	resp, data := postJSON(t, ts.URL+"/v1/simulate", streamReq)
	if resp.StatusCode != 200 {
		t.Fatalf("one-shot status %d: %s", resp.StatusCode, data)
	}
	var oneShot SimulateResponse
	if err := json.Unmarshal(data, &oneShot); err != nil {
		t.Fatal(err)
	}

	header, events := streamSimulate(t, ts.URL, streamReq)
	if header.Get("X-Session-Id") == "" {
		t.Error("missing X-Session-Id header")
	}
	if len(events) < 3 {
		t.Fatalf("only %d events streamed", len(events))
	}
	if events[0].Type != telemetry.EventStart {
		t.Fatalf("first event %q, want start", events[0].Type)
	}
	last := events[len(events)-1]
	if last.Type != telemetry.EventResult {
		t.Fatalf("last event %q, want result", last.Type)
	}
	types := countTypes(events)
	if types[telemetry.EventCycle] == 0 {
		t.Error("no cycle events")
	}
	if types[telemetry.EventDrop]+types[telemetry.EventRetransmit] == 0 {
		t.Error("fault-injected run streamed no fault events")
	}
	for _, e := range events {
		if e.Session != header.Get("X-Session-Id") {
			t.Fatalf("event session %q != header %q", e.Session, header.Get("X-Session-Id"))
		}
	}

	var streamed SimulateResponse
	if err := json.Unmarshal(last.Payload, &streamed); err != nil {
		t.Fatalf("result payload: %v", err)
	}
	if streamed.Sim != oneShot.Sim {
		t.Fatalf("stream diverged from one-shot:\n stream: %+v\n oneshot: %+v", streamed.Sim, oneShot.Sim)
	}

	// The finished session is listable with final state and counters.
	var sl SessionsResponse
	get(t, ts.URL+"/v1/sessions", &sl)
	found := false
	for _, si := range sl.Sessions {
		if si.ID != header.Get("X-Session-Id") {
			continue
		}
		found = true
		if si.State != SessionDone || si.Cycles != streamed.Sim.Cycles || si.Events == 0 {
			t.Errorf("session listing %+v", si)
		}
	}
	if !found {
		t.Error("finished session missing from /v1/sessions")
	}
}

// TestSimulateStreamPartitioned requires start-to-result framing, cycle
// and fault events, and per-shard samples on a fault-injected
// partitioned streaming run.
func TestSimulateStreamPartitioned(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := streamReq
	req.Partitions = 4
	_, events := streamSimulate(t, ts.URL, req)
	if len(events) < 2 || events[0].Type != telemetry.EventStart || events[len(events)-1].Type != telemetry.EventResult {
		t.Fatalf("partitioned stream of %d events is not framed start..result", len(events))
	}
	types := countTypes(events)
	if types[telemetry.EventShard] == 0 || types[telemetry.EventCycle] == 0 {
		t.Fatalf("partitioned stream carried %d shard and %d cycle events", types[telemetry.EventShard], types[telemetry.EventCycle])
	}
	if types[telemetry.EventDrop]+types[telemetry.EventRetransmit] == 0 {
		t.Error("fault-injected partitioned run streamed no fault events")
	}
	var result SimulateResponse
	if err := json.Unmarshal(events[len(events)-1].Payload, &result); err != nil {
		t.Fatal(err)
	}
	shards := make(map[int]bool)
	for _, e := range events {
		if e.Type == telemetry.EventShard {
			if e.Cycle < 1 || e.Cycle > result.Sim.Cycles || e.Shard < 0 || e.Shard >= 4 {
				t.Fatalf("implausible shard sample %+v", e)
			}
			shards[e.Shard] = true
		}
	}
	if len(shards) != 4 {
		t.Fatalf("samples from %d shards, want 4", len(shards))
	}
}

// TestSimulateStreamReportsShardsThatRan holds the start event and the
// session listing to the shard count that runs, as the result's dist
// does.  A 5-node guest fits X(0), a single vertex, so four requested
// partitions run one shard; one requested partition runs single-process,
// and both leave the count out.
func TestSimulateStreamReportsShardsThatRan(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, c := range []struct{ asked, ran int }{{4, 1}, {1, 0}} {
		header, events := streamSimulate(t, ts.URL, SimulateRequest{
			Tree: &TreeSpec{Family: "complete", N: 5}, Workload: WorkloadBroadcast, Partitions: c.asked})
		if len(events) < 2 || events[0].Type != telemetry.EventStart || events[len(events)-1].Type != telemetry.EventResult {
			t.Fatalf("partitions=%d: stream of %d events is not framed start..result", c.asked, len(events))
		}
		var start map[string]json.RawMessage
		if err := json.Unmarshal(events[0].Payload, &start); err != nil {
			t.Fatal(err)
		}
		got := 0
		if raw, ok := start["partitions"]; ok {
			if err := json.Unmarshal(raw, &got); err != nil || got == 0 {
				t.Fatalf("partitions=%d: start event partitions %s", c.asked, raw)
			}
		}
		var result SimulateResponse
		if err := json.Unmarshal(events[len(events)-1].Payload, &result); err != nil {
			t.Fatal(err)
		}
		dist := 0
		if result.Dist != nil {
			dist = result.Dist.Partitions
		}
		var list SessionsResponse
		get(t, ts.URL+"/v1/sessions", &list)
		listed := -1
		for _, si := range list.Sessions {
			if si.ID == header.Get("X-Session-Id") {
				listed = si.Partitions
			}
		}
		if got != c.ran || dist != c.ran || listed != c.ran {
			t.Errorf("partitions=%d: start event reports %d, dist %d, session listing %d; want %d",
				c.asked, got, dist, listed, c.ran)
		}
	}
}

// TestSessionAttachAndResume replays a finished session through the
// attach endpoint, then resumes mid-stream with Last-Event-ID.
func TestSessionAttachAndResume(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	header, events := streamSimulate(t, ts.URL, streamReq)
	id := header.Get("X-Session-Id")

	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("attach status %d", resp.StatusCode)
	}
	replay := decodeStream(t, resp.Body)
	resp.Body.Close()
	if len(replay) != len(events) {
		t.Fatalf("replay %d events, original %d", len(replay), len(events))
	}

	// Resume from the middle: Last-Event-ID carries the last seq seen.
	mid := events[len(events)/2]
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/sessions/"+id+"/events", nil)
	req.Header.Set("Last-Event-ID", strconv.FormatUint(mid.StreamSeq, 10))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resumed := decodeStream(t, resp.Body)
	resp.Body.Close()
	if len(resumed) == 0 || resumed[0].StreamSeq != mid.StreamSeq+1 {
		t.Fatalf("resume started at %d, want %d", resumed[0].StreamSeq, mid.StreamSeq+1)
	}
	if want := len(events) - len(events)/2 - 1; len(resumed) != want {
		t.Fatalf("resumed %d events, want %d", len(resumed), want)
	}

	// Unknown sessions 404; bad cursors 400.
	if resp, _ := http.Get(ts.URL + "/v1/sessions/nope/events"); resp.StatusCode != 404 {
		t.Errorf("unknown session status %d", resp.StatusCode)
	}
	// The largest seq has no successor: resuming after it once wrapped
	// to 0 and replayed the whole session.
	for _, bad := range []string{"not-a-number", "18446744073709551615"} {
		req, _ = http.NewRequest(http.MethodGet, ts.URL+"/v1/sessions/"+id+"/events", nil)
		req.Header.Set("Last-Event-ID", bad)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("Last-Event-ID %s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestStreamCapacityGate pins the stream budget: attach connections
// beyond the gate's limit shed with 429 + Retry-After, and release on
// close.
func TestStreamCapacityGate(t *testing.T) {
	s, ts := newTestServer(t, Config{}, func(s *Server) {
		s.streams.max = 1
		s.heartbeatInterval = 20 * time.Millisecond
	})
	header, _ := streamSimulate(t, ts.URL, streamReq)
	id := header.Get("X-Session-Id")

	// Attaches to the finished session drain instantly, releasing the
	// slot each time: the gate must be a counter, not a one-way latch.
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("attach %d status %d", i, resp.StatusCode)
		}
	}

	// Saturate the single slot against a session whose hub stays open:
	// the attach stream idles on heartbeats and holds its slot for as
	// long as we leave the connection up.
	live := s.sessions.open("held-open", 0, 0)
	defer func() {
		live.hub.Close()
		s.sessions.finish(live, "")
	}()
	held, err := http.Get(ts.URL + "/v1/sessions/" + live.id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Body.Close()
	if held.StatusCode != 200 {
		t.Fatalf("hold-open attach status %d", held.StatusCode)
	}
	// Reading one byte (the first heartbeat) proves the handler passed
	// the gate before we test the over-budget request.
	if _, err := io.ReadFull(held.Body, make([]byte, 1)); err != nil {
		t.Fatalf("hold-open read: %v", err)
	}

	resp, err := http.Get(ts.URL + "/v1/sessions/" + live.id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 429 {
		t.Fatalf("over-budget attach status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// stallWriter is an http.ResponseWriter whose first Write blocks until
// released, emulating a client that stops reading mid-stream.
type stallWriter struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	stalled chan struct{} // closed when a Write first blocks
	release chan struct{} // close to let writes proceed
	once    sync.Once
}

func newStallWriter() *stallWriter {
	return &stallWriter{stalled: make(chan struct{}), release: make(chan struct{})}
}

func (sw *stallWriter) Header() http.Header { return http.Header{} }
func (sw *stallWriter) WriteHeader(int)     {}
func (sw *stallWriter) Flush()              {}

func (sw *stallWriter) Write(p []byte) (int, error) {
	sw.once.Do(func() { close(sw.stalled) })
	<-sw.release
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.buf.Write(p)
}

func (sw *stallWriter) lines() []byte {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return append([]byte(nil), sw.buf.Bytes()...)
}

// TestStreamEventsSlowWriter pins the backpressure contract at the
// writer loop: while the connection is stalled the publisher keeps
// going (the ring overwrites), and on resume the client gets a dropped
// marker with an exact count followed by the surviving tail.
func TestStreamEventsSlowWriter(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	const ring = 8
	ss := s.sessions.open("stall", 0, ring)

	// One event so the writer has something to block on.
	ss.rec.Publish(telemetry.Event{TraceEvent: netsim.TraceEvent{Type: telemetry.EventCycle, Cycle: 0}})
	sub := ss.hub.Subscribe(0)
	sw := newStallWriter()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.streamEvents(context.Background(), sw, sw, ss, sub)
	}()
	<-sw.stalled

	// The stalled writer must not slow this down: publish far past the
	// ring while it is blocked mid-Write.
	const total = 101
	for i := 1; i < total; i++ {
		ss.rec.Publish(telemetry.Event{TraceEvent: netsim.TraceEvent{Type: telemetry.EventCycle, Cycle: i}})
	}
	ss.hub.Close()
	s.sessions.finish(ss, "")
	close(sw.release)
	<-done

	events := decodeStream(t, bytes.NewReader(sw.lines()))
	if len(events) == 0 {
		t.Fatal("no events written after release")
	}
	if events[0].Cycle != 0 {
		t.Fatalf("first event cycle %d, want the pre-stall event", events[0].Cycle)
	}
	var markers, droppedTotal int
	for _, e := range events {
		if e.Type == telemetry.EventDropped {
			markers++
			droppedTotal += int(e.Dropped)
		}
	}
	if markers == 0 {
		t.Fatal("stalled stream resumed without a dropped marker")
	}
	// Cursor was at 1 when the ring (size 8) wrapped to [total-8, total):
	// exactly total-1-8 events are unrecoverable.
	if want := total - 1 - ring; droppedTotal != want {
		t.Fatalf("dropped marker total %d, want %d", droppedTotal, want)
	}
	tail := events[len(events)-ring:]
	for i, e := range tail {
		if want := total - ring + i; e.Cycle != want {
			t.Fatalf("tail[%d] cycle %d, want %d", i, e.Cycle, want)
		}
	}
	if got := ss.hub.Dropped(); got != uint64(total-1-ring) {
		t.Fatalf("hub dropped counter %d, want %d", got, total-1-ring)
	}
}

// TestStreamSlowClientResult pins over real HTTP that a client which
// stalls until the run finishes still gets a result identical to the
// one-shot response (drops permitting, the result event is always the
// newest ring entry).
func TestStreamSlowClientResult(t *testing.T) {
	_, ts := newTestServer(t, Config{}, func(s *Server) { s.telemetryRing = 16 })
	req := SimulateRequest{
		Tree:     &TreeSpec{Family: "random", N: 496, Seed: Seed(11)},
		Workload: WorkloadExchange,
		Rounds:   4,
	}
	respRef, dataRef := postJSON(t, ts.URL+"/v1/simulate", req)
	if respRef.StatusCode != 200 {
		t.Fatalf("one-shot status %d: %s", respRef.StatusCode, dataRef)
	}
	var oneShot SimulateResponse
	if err := json.Unmarshal(dataRef, &oneShot); err != nil {
		t.Fatal(err)
	}

	raw, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/simulate?stream=1", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	// Stall: read nothing until the simulation has certainly finished.
	id := resp.Header.Get("X-Session-Id")
	deadline := time.Now().Add(10 * time.Second)
	for {
		var sl SessionsResponse
		get(t, ts.URL+"/v1/sessions", &sl)
		done := false
		for _, si := range sl.Sessions {
			if si.ID == id && si.State != SessionRunning {
				done = true
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session never finished while the client stalled")
		}
		time.Sleep(10 * time.Millisecond)
	}
	events := decodeStream(t, resp.Body)
	last := events[len(events)-1]
	if last.Type != telemetry.EventResult {
		t.Fatalf("last event %q, want result", last.Type)
	}
	var streamed SimulateResponse
	if err := json.Unmarshal(last.Payload, &streamed); err != nil {
		t.Fatal(err)
	}
	if streamed.Sim != oneShot.Sim {
		t.Fatalf("slow client changed the result:\n stream: %+v\n oneshot: %+v", streamed.Sim, oneShot.Sim)
	}
}

// TestHealthzActiveSessions pins the healthz field and that stream=0
// requests never create sessions.
func TestHealthzActiveSessions(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/simulate", streamReq)
	var hr HealthResponse
	get(t, ts.URL+"/healthz", &hr)
	if hr.ActiveSessions != 0 {
		t.Errorf("active_sessions %d after one-shot request", hr.ActiveSessions)
	}
	var sl SessionsResponse
	get(t, ts.URL+"/v1/sessions", &sl)
	if len(sl.Sessions) != 0 {
		t.Errorf("one-shot simulate created sessions: %+v", sl.Sessions)
	}
}

// TestStreamHeartbeat attaches to an idle open session, and then with a
// far-future ?from= cursor behind one published event, and requires
// only keep-alive events until the stream deadline closes each
// connection.
func TestStreamHeartbeat(t *testing.T) {
	s, ts := newTestServer(t, Config{}, func(s *Server) {
		s.heartbeatInterval = 20 * time.Millisecond
		s.streamTimeout = 250 * time.Millisecond
	})
	ss := s.sessions.open("idle", 0, 0)
	defer func() {
		ss.hub.Close()
		s.sessions.finish(ss, "")
	}()

	for _, query := range []string{"", "?from=1000000000000"} {
		if query != "" {
			ss.rec.Publish(telemetry.Event{TraceEvent: netsim.TraceEvent{Type: telemetry.EventCycle}})
		}
		resp, err := http.Get(ts.URL + "/v1/sessions/" + ss.id + "/events" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("attach%s status %d", query, resp.StatusCode)
		}
		events := decodeStream(t, resp.Body) // ends when streamTimeout fires
		if len(events) < 2 {
			t.Fatalf("idle stream%s carried %d events, want >=2 heartbeats", query, len(events))
		}
		for _, e := range events {
			if e.Type != telemetry.EventHeartbeat {
				t.Fatalf("idle stream%s carried %q, want only heartbeats", query, e.Type)
			}
			if e.Session != ss.id {
				t.Fatalf("heartbeat session %q, want %q", e.Session, ss.id)
			}
		}
	}
}

// TestSessionListOrder checks newest-first listing and the recent ring.
func TestSessionListOrder(t *testing.T) {
	_, ts := newTestServer(t, Config{}, func(s *Server) { s.sessions.keep = 2 })
	var ids []string
	for i := 0; i < 3; i++ {
		header, _ := streamSimulate(t, ts.URL, streamReq)
		ids = append(ids, header.Get("X-Session-Id"))
	}
	var sl SessionsResponse
	get(t, ts.URL+"/v1/sessions", &sl)
	if len(sl.Sessions) != 2 {
		t.Fatalf("listed %d sessions, want the 2 most recent", len(sl.Sessions))
	}
	if sl.Sessions[0].ID != ids[2] || sl.Sessions[1].ID != ids[1] {
		t.Fatalf("listing order %v, want [%s %s]", sl.Sessions, ids[2], ids[1])
	}
	// The aged-out session's stream is gone.
	if resp, _ := http.Get(ts.URL + "/v1/sessions/" + ids[0] + "/events"); resp.StatusCode != 404 {
		t.Errorf("aged-out session attach status %d, want 404", resp.StatusCode)
	}
}

// TestStreamInvalidRequest keeps input errors as plain JSON, never
// half-open streams.
func TestStreamInvalidRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/simulate?stream=1", "application/json",
		strings.NewReader(`{"workload":"broadcast"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("error content type %q", ct)
	}
}

// TestStreamsAndEmbedsConcurrently runs 5 streaming simulate sessions
// and 5 hypercube embeds at once: every stream must drain to its result
// event and every embed must answer 200 beside them.
func TestStreamsAndEmbedsConcurrently(t *testing.T) {
	// Streaming sessions hold their admission slot for the whole stream,
	// so slots plus queue leave room for all ten clients.
	_, ts := newTestServer(t, Config{MaxConcurrent: 8, MaxQueue: 8})
	const each = 5
	errs := make(chan error, 2*each)
	post := func(path string, req interface{}) (*http.Response, error) {
		raw, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
		if err == nil && resp.StatusCode != 200 {
			resp.Body.Close()
			err = fmt.Errorf("POST %s: status %d", path, resp.StatusCode)
		}
		return resp, err
	}
	for i := 0; i < each; i++ {
		tree := &TreeSpec{Family: "random", N: 200, Seed: Seed(int64(i))}
		go func() {
			resp, err := post("/v1/simulate?stream=1", SimulateRequest{Tree: tree, Workload: WorkloadDivideConquer})
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			events, err := readEvents(resp.Body)
			if err == nil && (len(events) == 0 || events[len(events)-1].Type != telemetry.EventResult) {
				err = fmt.Errorf("stream of %d events does not end in a result", len(events))
			}
			errs <- err
		}()
		go func() {
			resp, err := post("/v1/embed", EmbedRequest{Tree: tree, Host: HostHypercube})
			if err == nil {
				resp.Body.Close()
			}
			errs <- err
		}()
	}
	for i := 0; i < 2*each; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestEvictedSessionIsReleased checks that a session evicted from the
// recent ring becomes unreachable, its hub and event ring with it.  Ring
// eviction by reslicing once left the evicted session in the backing
// array's dead prefix until a later append reallocated it.
func TestEvictedSessionIsReleased(t *testing.T) {
	sr := newSessionRegistry()
	released := make(chan struct{})
	func() {
		ss := sr.open("broadcast", 1, 16)
		runtime.SetFinalizer(ss.hub, func(*telemetry.Hub) { close(released) })
		sr.finish(ss, "")
	}()
	for i := 0; i < sr.keep; i++ {
		sr.finish(sr.open("broadcast", 1, 16), "")
	}
	if len(sr.recent) != sr.keep {
		t.Fatalf("recent ring holds %d sessions, want %d", len(sr.recent), sr.keep)
	}
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-released:
			runtime.KeepAlive(sr) // the registry itself stays reachable
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(sr)
	t.Fatal("the evicted session's hub is still reachable after 50 collections")
}

// discardStream is a connection that takes every byte at once.
type discardStream struct{ header http.Header }

func (d *discardStream) Header() http.Header         { return d.header }
func (d *discardStream) WriteHeader(int)             {}
func (d *discardStream) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardStream) Flush()                      {}

// TestStreamedSessionAllocBudget gates what one streamed session
// allocates: one round of exchange on a random n=2032 guest (seed 1)
// under the default embed on X(6), its 4,077 events published through
// the session's Recorder and read by one writer loop into a connection
// that never stalls.  The run, the hub and the writer are all counted, as
// the server pays for them per streamed request.  The sessions run on one
// P, so the run's pooled scratch always comes back to the next run (a
// sync.Pool keeps a private item per P) and the reader takes the whole
// backlog in batches of 256.  While the hub kept a 4,096-event ring of
// structs, the writer read each batch as a fresh slice of events, and
// every run regrew its buffers, a session allocated 6,191,948 bytes in 261
// allocations; with lines stored once in reused pages, copied into the
// writer's one buffer, and the run's scratch pooled, 973,904 bytes in
// 153.  The budgets are those counts plus 25%.
func TestStreamedSessionAllocBudget(t *testing.T) {
	tr, err := bintree.Generate(bintree.FamilyRandom, 2032, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.EmbedXTree(tr, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := netsim.OnXTree(res.Host, res.Assignment)
	s := &Server{heartbeatInterval: DefaultHeartbeatInterval}
	sr := newSessionRegistry()
	w := &discardStream{header: http.Header{}}
	var events uint64
	session := func() {
		ss := sr.open(WorkloadExchange, tr.N(), 0)
		c := cfg
		c.Observers = []netsim.Observer{ss.rec}
		sub := ss.hub.Subscribe(0)
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.streamEvents(context.Background(), w, w, ss, sub)
		}()
		if _, err := netsim.Run(c, netsim.NewExchange(tr, 1)); err != nil {
			t.Error(err)
		}
		ss.hub.Close()
		<-done
		sub.Close()
		sr.finish(ss, "")
		events = ss.hub.Published()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	session() // warm the run's scratch pool and the per-height host
	const sessions = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < sessions; i++ {
		session()
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / sessions
	bytes := (after.TotalAlloc - before.TotalAlloc) / sessions
	maxAllocs, maxBytes := uint64(191), uint64(1_217_000)
	if race.Enabled { // every run may regrow its scratch: 203 allocations, 2,442,118 bytes
		maxAllocs, maxBytes = 254, 3_053_000
	}
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("streamed session allocates %d times, %d bytes; budget %d times, %d bytes",
			allocs, bytes, maxAllocs, maxBytes)
	}
	t.Logf("streamed session (%d events): %d allocations, %d bytes", events, allocs, bytes)
}
