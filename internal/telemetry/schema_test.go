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
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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
		e, err := DecodeEvent(line)
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if e.TraceEvent != rec.Events()[i] {
			t.Fatalf("line %d: decoded %+v != recorded %+v", i, e.TraceEvent, rec.Events()[i])
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
	// Encode through the stream writer's encoder, so the golden file
	// pins what the server writes.
	var buf []byte
	for i := range evs {
		if buf, err = evs[i].AppendJSON(buf); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, "stream.ndjson", buf)

	for i, line := range bytes.Split(bytes.TrimSpace(buf), []byte("\n")) {
		e, err := DecodeEvent(line)
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if e.StreamSeq != uint64(i) || e.Session != "s-golden" {
			t.Fatalf("line %d: seq=%d session=%q", i, e.StreamSeq, e.Session)
		}
	}
}

// TestDecodersShareSchema pins the "one enum, one version" rule: the
// stream event and the TraceRecorder line for one simulator event carry
// the same TraceEvent (the stream is a superset of the trace schema),
// DecodeEvent reads both, and it refuses versions it does not know.
func TestDecodersShareSchema(t *testing.T) {
	if SchemaVersion != netsim.TraceSchemaVersion {
		t.Fatalf("stream schema %d != trace schema %d", SchemaVersion, netsim.TraceSchemaVersion)
	}
	d := netsim.DeliverInfo{Cycle: 2, Host: 1, Seq: 3, Latency: 2}
	hub := NewHub(8)
	NewRecorder(hub, "s1").OnDeliver(d)
	sub := hub.Subscribe(0)
	defer sub.Close()
	evs, _, _, _ := sub.Next(context.Background(), 0)
	trace := netsim.NewTraceRecorder()
	trace.OnDeliver(d)
	var jsonl bytes.Buffer
	if err := trace.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	streamLine, err := evs[0].AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, line := range map[string][]byte{"stream": streamLine, "trace": jsonl.Bytes()} {
		e, err := DecodeEvent(line)
		if err != nil {
			t.Fatalf("%s line rejected: %v", name, err)
		}
		if e.TraceEvent != trace.Events()[0] {
			t.Fatalf("%s line decodes to %+v, want %+v", name, e.TraceEvent, trace.Events()[0])
		}
	}

	for _, bad := range []string{
		`{"schema_version":0,"type":"cycle","cycle":1}`,
		`{"schema_version":2,"type":"cycle","cycle":1}`,
		`{"type":"cycle","cycle":1}`,
	} {
		if _, err := DecodeEvent([]byte(bad)); err == nil ||
			!strings.Contains(err.Error(), "schema_version") {
			t.Errorf("decoder accepted %s (err=%v)", bad, err)
		}
	}
}

// checkAppendJSON requires AppendJSON to write exactly what json.Encoder
// writes with SetEscapeHTML(false), after whatever dst already held, and
// to fail, leaving dst as it was, exactly when json.Encoder fails.
func checkAppendJSON(t *testing.T, e *Event) {
	t.Helper()
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetEscapeHTML(false)
	wantErr := enc.Encode(e)

	prefix := []byte("prior line\n")
	got, err := e.AppendJSON(prefix)
	switch {
	case (err != nil) != (wantErr != nil):
		t.Fatalf("AppendJSON error %v, json.Encoder error %v", err, wantErr)
	case err != nil:
		if !bytes.Equal(got, prefix) {
			t.Fatalf("failed AppendJSON changed dst to %q", got)
		}
	case !bytes.HasPrefix(got, prefix):
		t.Fatalf("AppendJSON overwrote dst: %q", got)
	case !bytes.Equal(got[len(prefix):], want.Bytes()):
		t.Fatalf("AppendJSON wrote\n%s\njson.Encoder wrote\n%s", got[len(prefix):], want.Bytes())
	}
}

// TestAppendJSONWritesEveryField sets every field of an Event, found by
// reflection, so that a field added to Event or netsim.TraceEvent
// without its line in the append encoder fails here.
func TestAppendJSONWritesEveryField(t *testing.T) {
	var setAll func(v reflect.Value)
	setAll = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Struct:
				setAll(f)
			case reflect.Int, reflect.Int32, reflect.Int64:
				f.SetInt(int64(-i - 1))
			case reflect.Uint64:
				f.SetUint(uint64(i + 1))
			case reflect.Bool:
				f.SetBool(true)
			case reflect.String:
				f.SetString(fmt.Sprintf("field %d", i))
			case reflect.Slice:
				f.SetBytes([]byte(`{"k": [1, 2]}`))
			default:
				t.Fatalf("field %s has kind %s, which this test cannot set", v.Type().Field(i).Name, f.Kind())
			}
		}
	}
	var e Event
	setAll(reflect.ValueOf(&e).Elem())
	checkAppendJSON(t, &e)
}

// FuzzEventNDJSON holds the stream encoder to json.Encoder on arbitrary
// events: every numeric field, zero or not, is read from nums; strings
// may carry escapes, control characters, invalid UTF-8 and U+2028; the
// payload may be any bytes, valid JSON or not.
func FuzzEventNDJSON(f *testing.F) {
	f.Add("deliver", "", "s-1", []byte{2, 14, 0, 3, 1}, false, []byte(nil))
	f.Add("drop", "random", "s-golden", []byte{2, 4, 9, 1, 0, 0, 7, 8}, true, []byte(`{"delivered": 3}`))
	f.Add("<\"a&b\">", "\\\b\f\n\r\t\x00\x1f\x7f", "\u2028\u2029\xff\xfe\xc3", []byte{0x80, 0x80, 1}, true,
		[]byte(" [ \"<\\u00e9>\", \"\xff\", 1e3 , null ] \n"))
	f.Add("result", "", "", []byte{}, false, []byte(`{"a":`))
	f.Fuzz(func(t *testing.T, typ, reason, session string, nums []byte, local bool, payload []byte) {
		next := func() int64 {
			v, n := binary.Varint(nums)
			if n <= 0 {
				nums = nil
				return 0
			}
			nums = nums[n:]
			return v
		}
		e := Event{
			TraceEvent: netsim.TraceEvent{
				SchemaVersion: int(next()), Type: typ, Cycle: int(next()), Edge: int(next()),
				From: int32(next()), To: int32(next()), Host: int32(next()), Seq: next(),
				EvFrom: int32(next()), EvTo: int32(next()), Kind: int32(next()),
				Latency: int(next()), Local: local, Reason: reason, Attempt: int(next()),
				Backlog: int(next()), Inflight: int(next()), QueuedLinks: int(next()),
				QueuedLocal: int(next()), Parked: int(next()),
			},
			StreamSeq: uint64(next()), Session: session,
			Delivered: int(next()), Unreachable: int(next()), Emitted: next(), Hops: int(next()),
			Shard: int(next()), BoundaryOut: int(next()), BarrierWaitNanos: next(),
			Dropped: uint64(next()), Payload: payload,
		}
		checkAppendJSON(t, &e)
	})
}
