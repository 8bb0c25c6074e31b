package telemetry

// schema_test.go pins the wire formats.  One synthetic observer sequence
// drives every exporter — the TraceRecorder JSONL file and Chrome trace,
// and the streaming session NDJSON — against golden files, so any field
// rename, tag change or schema_version bump shows up as a diff instead
// of silently breaking downstream consumers.  Regenerate with:
//
//	go test ./internal/telemetry/ -run TestGolden -update
import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xtreesim/internal/netsim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// driveObserver replays a fixed, representative event sequence covering
// all six simulator event types.
func driveObserver(o netsim.Observer) {
	o.OnCycleStart(netsim.CycleInfo{Cycle: 1, Links: 8, Inflight: 3, Emitted: 5,
		Delivered: 1, Unreachable: 1, QueuedLinks: 2, QueuedLocal: 1})
	o.OnHop(netsim.HopInfo{Cycle: 1, Edge: 4, From: 2, To: 3, Seq: 7,
		Ev: netsim.Event{From: 10, To: 11, Kind: 1}, Backlog: 2})
	o.OnDeliver(netsim.DeliverInfo{Cycle: 1, Host: 3, Seq: 7,
		Ev: netsim.Event{From: 10, To: 11, Kind: 1}, Latency: 4})
	o.OnDrop(netsim.DropInfo{Cycle: 2, Seq: 9, Ev: netsim.Event{From: 12, To: 13, Kind: 2},
		Reason: netsim.DropRandom, Attempt: 1})
	o.OnRetransmit(netsim.RetransmitInfo{Cycle: 3, Seq: 9,
		Ev: netsim.Event{From: 12, To: 13, Kind: 2}, Attempt: 1})
	o.OnKill(netsim.KillInfo{Cycle: 4, Vertex: true, U: 5, V: 5})
	o.OnKill(netsim.KillInfo{Cycle: 4, Vertex: false, U: 1, V: 2})
	o.OnCycleStart(netsim.CycleInfo{Cycle: 5, Links: 8, Emitted: 5,
		Delivered: 3, Unreachable: 2})
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden.\ngot:\n%swant:\n%s", name, got, want)
	}
}

func TestGoldenTraceJSONL(t *testing.T) {
	rec := netsim.NewTraceRecorder()
	driveObserver(rec)
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace.jsonl", buf.Bytes())

	// Every golden line round-trips through the versioned decoder.
	for i, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		e, err := netsim.DecodeTraceEvent(line)
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if e != rec.Events()[i] {
			t.Fatalf("line %d: decoded %+v != recorded %+v", i, e, rec.Events()[i])
		}
	}
}

// TestGoldenChromeTrace pins the recorder's Chrome export byte for byte.
func TestGoldenChromeTrace(t *testing.T) {
	rec := netsim.NewTraceRecorder()
	driveObserver(rec)
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace.chrome.json", buf.Bytes())
}

func TestGoldenStreamNDJSON(t *testing.T) {
	hub := NewHub(64)
	rec := NewRecorder(hub, "s-golden")
	rec.StreamHops = true
	driveObserver(rec)
	rec.Publish(Event{TraceEvent: netsim.TraceEvent{Type: EventShard, Cycle: 5},
		Shard: 1, Hops: 3, BoundaryOut: 2, BarrierWaitNanos: 1500})
	rec.Publish(Event{TraceEvent: netsim.TraceEvent{Type: EventResult},
		Payload: json.RawMessage(`{"delivered":3}`)})
	hub.Close()

	sub := hub.Subscribe(0)
	defer sub.Close()
	evs, dropped, ok, err := sub.Next(context.Background(), 0)
	if err != nil || !ok || dropped != 0 {
		t.Fatalf("Next: ok=%v dropped=%d err=%v", ok, dropped, err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range evs {
		if err := enc.Encode(&evs[i]); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, "stream.ndjson", buf.Bytes())

	for i, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		e, err := DecodeEvent(line)
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if e.StreamSeq != uint64(i) || e.Session != "s-golden" {
			t.Fatalf("line %d: seq=%d session=%q", i, e.StreamSeq, e.Session)
		}
	}
}

// TestDecodersShareSchema pins the "one enum, one version" satellite: a
// simulator event encoded by the stream is decodable by the trace
// decoder (the stream is a superset of the trace schema), and both
// decoders refuse versions they do not know.
func TestDecodersShareSchema(t *testing.T) {
	if SchemaVersion != netsim.TraceSchemaVersion {
		t.Fatalf("stream schema %d != trace schema %d", SchemaVersion, netsim.TraceSchemaVersion)
	}
	hub := NewHub(8)
	rec := NewRecorder(hub, "s1")
	rec.OnDeliver(netsim.DeliverInfo{Cycle: 2, Host: 1, Seq: 3, Latency: 2})
	sub := hub.Subscribe(0)
	defer sub.Close()
	evs, _, _, _ := sub.Next(context.Background(), 0)
	line, err := json.Marshal(&evs[0])
	if err != nil {
		t.Fatal(err)
	}
	te, err := netsim.DecodeTraceEvent(line)
	if err != nil {
		t.Fatalf("trace decoder rejected a stream line: %v", err)
	}
	if te != evs[0].TraceEvent {
		t.Fatalf("trace view drifted: %+v != %+v", te, evs[0].TraceEvent)
	}

	for _, bad := range []string{
		`{"schema_version":0,"type":"cycle","cycle":1}`,
		`{"schema_version":2,"type":"cycle","cycle":1}`,
		`{"type":"cycle","cycle":1}`,
	} {
		if _, err := netsim.DecodeTraceEvent([]byte(bad)); err == nil ||
			!strings.Contains(err.Error(), "schema_version") {
			t.Errorf("trace decoder accepted %s (err=%v)", bad, err)
		}
		if _, err := DecodeEvent([]byte(bad)); err == nil ||
			!strings.Contains(err.Error(), "schema_version") {
			t.Errorf("stream decoder accepted %s (err=%v)", bad, err)
		}
	}
}
