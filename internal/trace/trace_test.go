package trace

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestRootSamplingAllAndNone(t *testing.T) {
	all := New(Config{SampleRate: 1})
	for i := 0; i < 50; i++ {
		_, sp := all.Root(context.Background(), "req")
		if sp == nil {
			t.Fatalf("rate 1: root %d not sampled", i)
		}
		sp.End()
	}
	none := New(Config{SampleRate: 0})
	for i := 0; i < 50; i++ {
		ctx := context.Background()
		ctx2, sp := none.Root(ctx, "req")
		if sp != nil {
			t.Fatalf("rate 0: root %d sampled", i)
		}
		if ctx2 != ctx {
			t.Fatal("rate 0: context was replaced")
		}
	}
	if got := none.Recorded(); got != 0 {
		t.Fatalf("rate 0 recorded %d spans", got)
	}
}

func TestPartialSamplingRate(t *testing.T) {
	tr := New(Config{SampleRate: 0.5})
	sampled := 0
	const n = 2000
	for i := 0; i < n; i++ {
		_, sp := tr.Root(context.Background(), "req")
		if sp != nil {
			sampled++
			sp.End()
		}
	}
	if sampled < n/4 || sampled > 3*n/4 {
		t.Fatalf("rate 0.5 sampled %d of %d", sampled, n)
	}
}

func TestUnsampledPathZeroAllocs(t *testing.T) {
	tr := New(Config{SampleRate: 0})
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		ctx2, sp := tr.Root(ctx, "req")
		sp.SetAttr("k", 1)
		c := sp.Child("child")
		c.SetAttr("depth", 3).End()
		sp.Record("done", time.Time{}, time.Time{})
		_, c2 := Start(ctx2, "phase")
		c2.End()
		Record(ctx2, "r", time.Time{}, time.Time{})
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("unsampled span ops allocated %.1f times per run, want 0", allocs)
	}
}

// BenchmarkUnsampledSpanOps is the alloc guard for the disabled hot
// path, in the spirit of the netsim ring-queue benchmark: run with
// -benchmem and expect 0 B/op, 0 allocs/op.
func BenchmarkUnsampledSpanOps(b *testing.B) {
	tr := New(Config{SampleRate: 0})
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx2, sp := tr.Root(ctx, "req")
		c := FromContext(ctx2).Child("child")
		c.SetAttr("k", int64(i))
		c.End()
		sp.End()
	}
}

func TestParentingAndContextPropagation(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	ctx, root := tr.Root(context.Background(), "req")
	if FromContext(ctx) != root {
		t.Fatal("context does not carry the root span")
	}
	ctx2, child := Start(ctx, "phase")
	if child == nil || FromContext(ctx2) != child {
		t.Fatal("Start did not swap the context span")
	}
	grand := child.Child("sub")
	grand.SetAttr("depth", 2)
	grand.End()
	child.End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	byName := map[string]SpanData{}
	for _, sd := range spans {
		byName[sd.Name] = sd
		if sd.Trace != root.TraceID() {
			t.Fatalf("span %q trace %s != root trace %s", sd.Name, sd.Trace, root.TraceID())
		}
	}
	if byName["req"].Parent != "" {
		t.Fatalf("root has parent %q", byName["req"].Parent)
	}
	if byName["phase"].Parent != byName["req"].Span {
		t.Fatal("phase span does not parent to the root")
	}
	if byName["sub"].Parent != byName["phase"].Span {
		t.Fatal("sub span does not parent to phase")
	}
	if v, ok := byName["sub"].Attrs.Get("depth"); !ok || v != 2 {
		t.Fatalf("sub attrs = %v, want depth=2", byName["sub"].Attrs)
	}
}

// TestSetAttrReplacesKey: a key set twice keeps its last value at its
// first position, so the exported object never repeats a key.
func TestSetAttrReplacesKey(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	_, sp := tr.Root(context.Background(), "s")
	sp.SetAttr("n", 496).SetAttr("size", 496).SetAttr("n", 300).End()
	got := tr.Spans()[0].Attrs
	if want := (Attrs{{Key: "n", Val: 300}, {Key: "size", Val: 496}}); !slices.Equal(got, want) {
		t.Fatalf("attrs %v, want %v", got, want)
	}
}

func TestRingBoundsAndDropCounter(t *testing.T) {
	tr := New(Config{SampleRate: 1, RingSize: 4})
	for i := 0; i < 10; i++ {
		_, sp := tr.Root(context.Background(), "s")
		sp.SetAttr("i", int64(i))
		sp.End()
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	for k, sd := range spans {
		if v, _ := sd.Attrs.Get("i"); v != int64(6+k) {
			t.Fatalf("ring[%d] carries i=%d, want %d (oldest-first order)", k, v, 6+k)
		}
	}
	if tr.Recorded() != 10 || tr.Dropped() != 6 {
		t.Fatalf("recorded=%d dropped=%d, want 10/6", tr.Recorded(), tr.Dropped())
	}
}

func TestRecordCompletedChildAndDoubleEnd(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	_, root := tr.Root(context.Background(), "req")
	start := time.Now().Add(-5 * time.Millisecond)
	root.Record("queue-wait", start, start.Add(3*time.Millisecond), Int("n", 7))
	root.End()
	root.End() // second End must not double-record

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	var qw SpanData
	for _, sd := range spans {
		if sd.Name == "queue-wait" {
			qw = sd
		}
	}
	if qw.Name == "" {
		t.Fatal("queue-wait span missing")
	}
	if got := time.Duration(qw.Dur); got < 2*time.Millisecond || got > 4*time.Millisecond {
		t.Fatalf("queue-wait duration %v, want ~3ms", got)
	}
	if v, ok := qw.Attrs.Get("n"); !ok || v != 7 {
		t.Fatalf("queue-wait attrs %v", qw.Attrs)
	}
}

func TestRootWithIDJoinsTrace(t *testing.T) {
	tr := New(Config{SampleRate: 0}) // rate 0: only forced roots trace
	id, ok := ParseID("00000000deadbeef")
	if !ok {
		t.Fatal("ParseID rejected a valid ID")
	}
	_, sp := tr.RootWithID(context.Background(), "req", id)
	if sp == nil {
		t.Fatal("RootWithID did not sample")
	}
	if sp.TraceID() != "00000000deadbeef" {
		t.Fatalf("trace ID %s, want 00000000deadbeef", sp.TraceID())
	}
	sp.End()
}

func TestParseIDRejectsBadInput(t *testing.T) {
	for _, s := range []string{"", "zz", "0000000000000000", "g123456789abcdef", "0123456789abcde", "0123456789abcdef0"} {
		if _, ok := ParseID(s); ok {
			t.Fatalf("ParseID accepted %q", s)
		}
	}
	id := uint64(0xfeed1234beef5678)
	got, ok := ParseID(FormatID(id))
	if !ok || got != id {
		t.Fatalf("round trip %x -> %s -> %x ok=%v", id, FormatID(id), got, ok)
	}
}

func TestWriteJSONLRoundTrip(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	_, root := tr.Root(context.Background(), "req")
	c := root.Child("phase")
	c.SetAttr("depth", 4).SetAttr("slack", 1)
	c.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var got []SpanData
	for sc.Scan() {
		var sd SpanData
		if err := json.Unmarshal(sc.Bytes(), &sd); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		got = append(got, sd)
	}
	if len(got) != 2 {
		t.Fatalf("exported %d lines, want 2", len(got))
	}
	for _, sd := range got {
		if sd.Trace == "" || sd.Span == "" || sd.Name == "" || sd.Dur < 0 {
			t.Fatalf("malformed span line: %+v", sd)
		}
	}
	var phase SpanData
	for _, sd := range got {
		if sd.Name == "phase" {
			phase = sd
		}
	}
	if v, ok := phase.Attrs.Get("depth"); !ok || v != 4 {
		t.Fatalf("phase attrs did not survive the round trip: %v", phase.Attrs)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	_, root := tr.Root(context.Background(), "req")
	root.Child("phase").End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Dur  int64          `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.TraceEvents) != 2 {
		t.Fatalf("chrome trace has %d events, want 2", len(out.TraceEvents))
	}
	for _, ev := range out.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 1 {
			t.Fatalf("event %+v: want complete (X) events with dur >= 1", ev)
		}
		if _, ok := ev.Args["trace"]; !ok {
			t.Fatalf("event %q lacks the trace arg", ev.Name)
		}
	}
	if !strings.Contains(buf.String(), "displayTimeUnit") {
		t.Fatal("chrome trace lacks displayTimeUnit")
	}
}

func TestPhaseHistograms(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	for i := 0; i < 3; i++ {
		_, sp := tr.Root(context.Background(), "req")
		sp.Child("phase").End()
		sp.End()
	}
	ph := tr.PhaseHistograms()
	if len(ph) != 2 {
		t.Fatalf("phase histograms %d, want 2 (req, phase)", len(ph))
	}
	if ph["phase"].Count() != 3 || ph["req"].Count() != 3 {
		t.Fatalf("phase counts req=%d phase=%d, want 3/3", ph["req"].Count(), ph["phase"].Count())
	}
}

func TestNilTracerAndNilSpanAreSafe(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.Root(context.Background(), "x")
	if sp != nil {
		t.Fatal("nil tracer must never sample")
	}
	if tr.Spans() != nil || tr.Dropped() != 0 || tr.PhaseHistograms() != nil {
		t.Fatal("nil tracer snapshots must be empty")
	}
	var s *Span
	if s.TraceID() != "" {
		t.Fatal("nil span must render empty IDs")
	}
	s.SetAttr("k", 1).Child("c").End()
	s.End()
	s.Record("r", time.Time{}, time.Time{})
	if got := FromContext(ctx); got != nil {
		t.Fatal("background context must carry no span")
	}
}
