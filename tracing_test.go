package xtreesim

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// TestEmbedContextRecordsPhases runs EmbedContext under an "embed" root
// span and asserts the tracer captured the construction's phase spans in
// that one trace, and that both TraceExport formats render them.
func TestEmbedContextRecordsPhases(t *testing.T) {
	tr := NewTracer(1)
	tree, err := GenerateTree(FamilyRandom, 300, 11)
	if err != nil {
		t.Fatal(err)
	}
	ctx, root := tr.Root(context.Background(), "embed")
	if _, err := EmbedContext(ctx, tree); err != nil {
		t.Fatal(err)
	}
	root.End()

	counts := map[string]int{}
	var rootTrace string
	for _, sd := range tr.Spans() {
		counts[sd.Name]++
		if sd.Name == "embed" {
			rootTrace = sd.Trace
		}
		if rootTrace != "" && sd.Trace != rootTrace {
			t.Fatalf("span %q escaped to trace %s", sd.Name, sd.Trace)
		}
	}
	for _, name := range []string{"embed", "embed.host-build", "embed.round", "embed.separator"} {
		if counts[name] == 0 {
			t.Errorf("missing %q spans: %v", name, counts)
		}
	}

	var jsonl bytes.Buffer
	if err := TraceExport(&jsonl, tr, "jsonl"); err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(&jsonl)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var sd SpanData
		if err := json.Unmarshal(sc.Bytes(), &sd); err != nil {
			t.Fatalf("bad JSONL line: %v", err)
		}
		lines++
	}
	if lines != len(tr.Spans()) {
		t.Errorf("JSONL exported %d lines, ring holds %d", lines, len(tr.Spans()))
	}

	var chrome bytes.Buffer
	if err := TraceExport(&chrome, tr, "chrome"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chrome.String(), `"traceEvents"`) {
		t.Error("chrome export lacks traceEvents")
	}
	if err := TraceExport(&chrome, tr, "protobuf"); err == nil {
		t.Error("unknown format should error")
	}
}

// TestEmbedContextJoinsCallerSpan asserts EmbedContext nests the phase
// spans under a span the caller already opened, and that a simulate span
// stamped with the run's counters joins the same trace — the facade
// route to the one-trace embed+simulate story.
func TestEmbedContextJoinsCallerSpan(t *testing.T) {
	tr := NewTracer(1)
	ctx, root := tr.Root(context.Background(), "job")
	tree, err := GenerateTree(FamilyComplete, 127, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EmbedContext(ctx, tree)
	if err != nil {
		t.Fatal(err)
	}
	sim := SpanFromContext(ctx).Child("simulate")
	if sim == nil {
		t.Fatal("sampled context yielded nil child span")
	}
	sr, err := SimulateOnXTree(res, NewBroadcast(tree))
	if err != nil {
		t.Fatal(err)
	}
	sim.SetAttr("cycles", int64(sr.Cycles)).SetAttr("hops", int64(sr.HopsTotal)).End()
	root.End()

	counts := map[string]int{}
	for _, sd := range tr.Spans() {
		if sd.Trace != root.TraceID() {
			t.Fatalf("span %q in foreign trace %s", sd.Name, sd.Trace)
		}
		counts[sd.Name]++
		if v, _ := sd.Attrs.Get("hops"); sd.Name == "simulate" && v <= 0 {
			t.Errorf("simulate span hops = %d, want > 0", v)
		}
	}
	for _, name := range []string{"job", "embed.host-build", "simulate"} {
		if counts[name] == 0 {
			t.Errorf("missing %q spans: %v", name, counts)
		}
	}
}
