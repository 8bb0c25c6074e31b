package server

// sessions.go is the live-telemetry face of the server: streaming
// /v1/simulate runs, the session registry behind GET /v1/sessions, and
// the NDJSON attach endpoint GET /v1/sessions/{id}/events.
//
// A streaming simulate splits the request across two goroutines.  The
// simulation runs on a spawned goroutine under the request's deadline
// context, publishing through a telemetry.Recorder into the session's
// bounded ring; the handler goroutine subscribes to that ring and writes
// NDJSON at whatever pace the client accepts.  A slow client therefore
// delays only its own writer — the ring overwrites, the subscriber gets
// counted "dropped" markers, and the simulation's Result stays
// byte-identical (the distsim tests pin this).  A client that
// disconnects cancels the request context, which aborts the simulation:
// an unwatched stream does not burn CPU to completion.
//
// Capacity: a streaming simulate holds its admission slot for the whole
// stream, so streams count against MaxConcurrent like any other request.
// Attach connections are bounded separately, to 2×MaxConcurrent (they
// cost a goroutine and a subscriber cursor, not a simulator), answering
// 429 when the budget is spent.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xtreesim/internal/bintree"
	"xtreesim/internal/netsim"
	"xtreesim/internal/telemetry"
)

// Session lifecycle states reported by GET /v1/sessions.
const (
	SessionRunning = "running"
	SessionDone    = "done"
	SessionFailed  = "failed"
)

// DefaultRecentSessions is how many finished sessions the registry keeps
// for listing and late attachment.
const DefaultRecentSessions = 32

// session is one streaming simulate run: its hub outlives the request
// handler so late subscribers can replay the retained ring.
type session struct {
	id       string
	hub      *telemetry.Hub
	rec      *telemetry.Recorder
	started  time.Time
	workload string
	treeN    int

	parts  atomic.Int64 // shards that run; 0 for an unpartitioned run
	cycles atomic.Int64 // progress: last cycle published

	mu       sync.Mutex
	state    string
	finished time.Time
	errMsg   string
}

func (ss *session) setState(state, errMsg string) {
	ss.mu.Lock()
	ss.state = state
	ss.errMsg = errMsg
	ss.finished = time.Now()
	ss.mu.Unlock()
}

func (ss *session) info() SessionInfo {
	ss.mu.Lock()
	state, errMsg, finished := ss.state, ss.errMsg, ss.finished
	ss.mu.Unlock()
	info := SessionInfo{
		ID:          ss.id,
		State:       state,
		Workload:    ss.workload,
		TreeNodes:   ss.treeN,
		Partitions:  int(ss.parts.Load()),
		StartedAt:   ss.started.UTC().Format(time.RFC3339Nano),
		Cycles:      int(ss.cycles.Load()),
		Events:      ss.hub.Published(),
		Dropped:     ss.hub.Dropped(),
		Subscribers: ss.hub.Subscribers(),
		Error:       errMsg,
	}
	end := finished
	if state == SessionRunning {
		end = time.Now()
	}
	info.ElapsedMS = float64(end.Sub(ss.started).Microseconds()) / 1000
	return info
}

// sessionRegistry tracks live sessions and a bounded ring of recent ones.
type sessionRegistry struct {
	mu     sync.Mutex
	live   map[string]*session
	recent []*session // oldest first, bounded by keep
	keep   int
	nextID uint64
	salt   uint64

	started   atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	// droppedRetired accumulates hub drop counters of sessions evicted
	// from the recent ring, so xtreesim_telemetry_dropped_total never
	// goes backwards.
	droppedRetired atomic.Uint64
}

func newSessionRegistry() *sessionRegistry {
	return &sessionRegistry{
		live: make(map[string]*session),
		keep: DefaultRecentSessions,
		// The process start time salts the IDs so two server lifetimes
		// never hand out the same session ID to a confused client.
		salt: uint64(time.Now().UnixNano()),
	}
}

func (sr *sessionRegistry) open(workload string, treeN, ring int) *session {
	sr.mu.Lock()
	sr.nextID++
	id := fmt.Sprintf("s-%x-%d", sr.salt&0xffffff, sr.nextID)
	hub := telemetry.NewHub(ring)
	ss := &session{
		id: id, hub: hub, rec: telemetry.NewRecorder(hub, id),
		started: time.Now(), workload: workload, treeN: treeN,
		state: SessionRunning,
	}
	sr.live[id] = ss
	sr.mu.Unlock()
	sr.started.Add(1)
	return ss
}

// finish moves the session from live to the recent ring.
func (sr *sessionRegistry) finish(ss *session, errMsg string) {
	if errMsg == "" {
		ss.setState(SessionDone, "")
		sr.completed.Add(1)
	} else {
		ss.setState(SessionFailed, errMsg)
		sr.failed.Add(1)
	}
	sr.mu.Lock()
	delete(sr.live, ss.id)
	sr.recent = append(sr.recent, ss)
	for len(sr.recent) > sr.keep {
		sr.droppedRetired.Add(sr.recent[0].hub.Dropped())
		// Clear the slot: the backing array's dead prefix would keep the
		// evicted session, and its hub's ring, reachable until a later
		// append reallocates it.
		sr.recent[0] = nil
		sr.recent = sr.recent[1:]
	}
	sr.mu.Unlock()
}

func (sr *sessionRegistry) get(id string) *session {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if ss, ok := sr.live[id]; ok {
		return ss
	}
	for _, ss := range sr.recent {
		if ss.id == id {
			return ss
		}
	}
	return nil
}

func (sr *sessionRegistry) active() int {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return len(sr.live)
}

// list returns live sessions first (newest first), then recent ones.
func (sr *sessionRegistry) list() []SessionInfo {
	sr.mu.Lock()
	live := make([]*session, 0, len(sr.live))
	for _, ss := range sr.live {
		live = append(live, ss)
	}
	recent := append([]*session(nil), sr.recent...)
	sr.mu.Unlock()
	sort.Slice(live, func(i, j int) bool { return live[i].started.After(live[j].started) })
	out := make([]SessionInfo, 0, len(live)+len(recent))
	for _, ss := range live {
		out = append(out, ss.info())
	}
	for i := len(recent) - 1; i >= 0; i-- {
		out = append(out, recent[i].info())
	}
	return out
}

// droppedTotal sums telemetry drops over every session the registry
// still knows, plus the retired remainder.
func (sr *sessionRegistry) droppedTotal() uint64 {
	sr.mu.Lock()
	total := sr.droppedRetired.Load()
	for _, ss := range sr.live {
		total += ss.hub.Dropped()
	}
	for _, ss := range sr.recent {
		total += ss.hub.Dropped()
	}
	sr.mu.Unlock()
	return total
}

// eventsTotal sums published events the same way.
func (sr *sessionRegistry) eventsTotal() uint64 {
	sr.mu.Lock()
	var total uint64
	for _, ss := range sr.live {
		total += ss.hub.Published()
	}
	for _, ss := range sr.recent {
		total += ss.hub.Published()
	}
	sr.mu.Unlock()
	return total
}

// progressObserver tracks the furthest published cycle for the session
// listing, piggybacking on the observer chain.
type progressObserver struct {
	netsim.NopObserver
	cycles *atomic.Int64
}

func (p progressObserver) OnCycleStart(c netsim.CycleInfo) { p.cycles.Store(int64(c.Cycle)) }

// wantsStream reports whether the simulate request asked for NDJSON
// with ?stream=1 (or true, or yes); the Accept header is not consulted.
func wantsStream(r *http.Request) bool {
	switch r.URL.Query().Get("stream") {
	case "1", "true", "yes":
		return true
	}
	return false
}

// handleSimulateStream serves POST /v1/simulate?stream=1 after the
// request is decoded, validated and embedded (so input errors are still
// plain JSON 4xx, not half-open streams).
func (s *Server) handleSimulateStream(w http.ResponseWriter, r *http.Request,
	req *SimulateRequest, tree *bintree.Tree, cfg netsim.Config, embItem EmbedItem) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, CodeInternal, "response writer cannot stream")
		return
	}
	ctx := r.Context()
	ss := s.sessions.open(req.Workload, tree.N(), s.telemetryRing)
	cfg.Observers = append(cfg.Observers, ss.rec, progressObserver{cycles: &ss.cycles})

	// The start event carries everything a late subscriber needs to
	// interpret the stream: the session, the embedding, and the request
	// shape with the shard count that runs.  It goes out once the run
	// knows that count, before the run's first event.
	start := func(parts int) {
		ss.parts.Store(int64(parts))
		payload, _ := json.Marshal(struct {
			Embed      EmbedItem `json:"embed"`
			Workload   string    `json:"workload"`
			TreeNodes  int       `json:"tree_nodes"`
			Partitions int       `json:"partitions,omitempty"`
		}{embItem, req.Workload, tree.N(), parts})
		ss.rec.Publish(telemetry.Event{
			TraceEvent: netsim.TraceEvent{Type: telemetry.EventStart},
			Payload:    payload,
		})
	}

	// The simulation runs aside so this goroutine can write; the request
	// context carries both the deadline and client-gone cancellation.
	go func() {
		resp, err := s.runSimulate(ctx, req, tree, cfg, embItem, ss.rec, start)
		if err != nil {
			ss.rec.Publish(telemetry.Event{
				TraceEvent: netsim.TraceEvent{Type: telemetry.EventError, Reason: err.Error()},
			})
			ss.hub.Close()
			s.sessions.finish(ss, err.Error())
			return
		}
		resp.ElapsedMS = float64(time.Since(ss.started).Microseconds()) / 1000
		payload, _ := json.Marshal(resp)
		ss.rec.Publish(telemetry.Event{
			TraceEvent: netsim.TraceEvent{Type: telemetry.EventResult},
			Payload:    payload,
		})
		ss.hub.Close()
		s.sessions.finish(ss, "")
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Session-Id", ss.id)
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher.Flush() // headers out now: the client sees the session ID immediately
	sub := ss.hub.Subscribe(0)
	defer sub.Close()
	s.streamEvents(ctx, w, flusher, ss, sub)
}

// handleSessions serves GET /v1/sessions.
func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "/v1/sessions accepts GET only")
		return
	}
	writeJSON(w, http.StatusOK, SessionsResponse{Sessions: s.sessions.list()})
}

// handleSessionEvents serves GET /v1/sessions/{id}/events: attach to a
// live or recent session and stream its events as NDJSON.  Resume with
// the Last-Event-ID header (or ?from=) carrying the last stream_seq the
// client saw.
func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "session event streams accept GET only")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, CodeInternal, "response writer cannot stream")
		return
	}
	ss := s.sessions.get(r.PathValue("id"))
	if ss == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "no such session (it may have aged out of the recent ring)")
		return
	}
	// Attach streams are capacity-bounded separately from the admission
	// slots: they hold a goroutine and a read cursor, not a simulator.
	if !s.streams.tryAcquire() {
		w.Header().Set("Retry-After", s.retryAfter())
		writeError(w, http.StatusTooManyRequests, CodeShed, "stream budget exhausted; retry later")
		return
	}
	defer s.streams.release()

	from := uint64(0)
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		last, err := strconv.ParseUint(v, 10, 64)
		if err != nil || last == math.MaxUint64 { // no seq follows the largest
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, "Last-Event-ID must be a stream_seq integer below 2^64-1")
			return
		}
		from = last + 1
	} else if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, "from must be a stream_seq integer")
			return
		}
		from = n
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.streamTimeout)
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Session-Id", ss.id)
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	sub := ss.hub.Subscribe(from)
	defer sub.Close()
	s.streamEvents(ctx, w, flusher, ss, sub)
}

// streamEvents is the shared writer loop: copy the subscriber's lines
// into the connection, one Write and one flush per batch, synthesize
// dropped markers and heartbeats, stop on end-of-stream, client
// departure, or deadline.  The hub stores each event as its NDJSON line,
// so a batch is a copy into buf, which the loop reuses: it encodes
// nothing but its own markers.  One timer paces the heartbeats; it
// restarts after every write.
func (s *Server) streamEvents(ctx context.Context, w http.ResponseWriter,
	flusher http.Flusher, ss *session, sub *telemetry.Subscriber) {
	idle := time.NewTimer(s.heartbeatInterval)
	defer idle.Stop()
	var buf, mark []byte // one batch of NDJSON lines, and a marker line with or before it
	for {
		var dropped uint64
		var err error
		buf, dropped, err = sub.AppendNext(ctx, idle.C, buf[:0], 256)
		out := buf
		switch {
		case errors.Is(err, telemetry.ErrIdle):
			// Only the heartbeat timer fired: the stream is idle but
			// alive.  Heartbeats are per-connection, not ring events.
			mark = appendMarker(mark[:0], ss.id, telemetry.EventHeartbeat, 0)
			out = mark
		case err != nil:
			return // io.EOF at the end of the stream, or client left or deadline hit
		case dropped > 0:
			// Synthesized per-subscriber, deliberately not published to
			// the ring: other subscribers may not have fallen behind.
			mark = append(appendMarker(mark[:0], ss.id, telemetry.EventDropped, dropped), buf...)
			out = mark
		}
		if _, err := w.Write(out); err != nil {
			return // client gone
		}
		flusher.Flush()
		if !idle.Stop() {
			select { // the timer fired during the write: drop its tick
			case <-idle.C:
			default:
			}
		}
		idle.Reset(s.heartbeatInterval)
	}
}

// appendMarker appends the writer's own event line: a heartbeat, or a
// dropped marker carrying its count.
func appendMarker(dst []byte, session, typ string, dropped uint64) []byte {
	e := telemetry.Event{
		TraceEvent: netsim.TraceEvent{SchemaVersion: telemetry.SchemaVersion, Type: typ},
		Session:    session,
		Dropped:    dropped,
	}
	dst, _ = e.AppendJSON(dst) // no payload: cannot fail
	return dst
}

// streamGate is the counting semaphore bounding attached event streams.
type streamGate struct {
	max    int64
	active atomic.Int64
}

func (g *streamGate) tryAcquire() bool {
	if g.active.Add(1) > g.max {
		g.active.Add(-1)
		return false
	}
	return true
}

func (g *streamGate) release() { g.active.Add(-1) }

// Active reports streams currently attached.
func (g *streamGate) Active() int64 { return g.active.Load() }
