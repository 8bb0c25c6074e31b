package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"

	"xtreesim/internal/core"
	"xtreesim/internal/trace"
)

// fetchSpans pulls /debug/trace, parses the JSONL export and checks
// every line's schema: well-formed IDs, a name, a start and a duration.
func fetchSpans(t *testing.T, baseURL string) []trace.SpanData {
	t.Helper()
	resp, err := http.Get(baseURL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/trace status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("/debug/trace content type %q", ct)
	}
	var out []trace.SpanData
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var sd trace.SpanData
		if err := json.Unmarshal(sc.Bytes(), &sd); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		_, traceOK := trace.ParseID(sd.Trace)
		_, spanOK := trace.ParseID(sd.Span)
		if !traceOK || !spanOK || sd.Name == "" || sd.Start <= 0 || sd.Dur < 0 {
			t.Fatalf("JSONL line %q breaks the span schema", sc.Text())
		}
		out = append(out, sd)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTracePropagationEndToEnd drives one /v1/simulate request through a
// fully-sampled server and asserts the response header's trace ID
// resolves, via /debug/trace, to a single trace holding the server root,
// the engine phases, at least one separator span with its depth
// attribute, and a simulate span carrying the run's counters — the
// one-trace acceptance criterion.
func TestTracePropagationEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceSample: 1})

	resp, body := postJSON(t, ts.URL+"/v1/simulate", map[string]interface{}{
		"tree":     map[string]interface{}{"family": "random", "n": 150, "seed": 11},
		"workload": "broadcast",
	})
	if resp.StatusCode != 200 {
		t.Fatalf("simulate status %d: %s", resp.StatusCode, body)
	}
	traceID := resp.Header.Get(TraceHeader)
	if _, ok := trace.ParseID(traceID); !ok {
		t.Fatalf("response %s header %q is not a span ID", TraceHeader, traceID)
	}

	spans := fetchSpans(t, ts.URL)
	var inTrace []trace.SpanData
	byID := map[string]trace.SpanData{}
	for _, sd := range spans {
		if sd.Trace == traceID {
			inTrace = append(inTrace, sd)
			byID[sd.Span] = sd
		}
	}
	if len(inTrace) == 0 {
		t.Fatalf("no exported spans carry trace %s (got %d spans total)", traceID, len(spans))
	}

	var rootSpanID, simSpanID string
	counts := map[string]int{}
	for _, sd := range inTrace {
		counts[sd.Name]++
		switch sd.Name {
		case "/v1/simulate":
			if sd.Parent != "" {
				t.Errorf("root span has parent %s", sd.Parent)
			}
			rootSpanID = sd.Span
		case "simulate":
			simSpanID = sd.Span
		case "embed.separator":
			if _, ok := sd.Attrs.Get("depth"); !ok {
				t.Errorf("separator span without depth attr: %+v", sd)
			}
		}
	}
	for _, name := range []string{"/v1/simulate", "simulate", "engine.queue-wait",
		"engine.canonical-encode", "engine.cache-lookup", "engine.embed-compute",
		"embed.host-build", "embed.separator"} {
		if counts[name] == 0 {
			t.Errorf("trace is missing %q spans (have %v)", name, counts)
		}
	}
	if rootSpanID == "" || simSpanID == "" {
		t.Fatalf("missing root or simulate span: %v", counts)
	}
	// The simulate span carries the run's counters instead of per-hop
	// children (hop detail is the event stream's job), and must nest (via
	// zero or more ancestors) under the request root.
	for name := range counts {
		if strings.HasPrefix(name, "sim.") {
			t.Errorf("trace carries per-event %q spans", name)
		}
	}
	sim := byID[simSpanID]
	for _, key := range []string{"cycles", "delivered", "hops", "max_queue",
		"latency_p99", "drops", "retransmits", "unreachable"} {
		if _, ok := sim.Attrs.Get(key); !ok {
			t.Errorf("simulate span lacks the %s counter: %v", key, sim.Attrs)
		}
	}
	for _, key := range []string{"cycles", "delivered", "hops"} {
		if v, _ := sim.Attrs.Get(key); v <= 0 {
			t.Errorf("simulate span %s = %d, want > 0", key, v)
		}
	}
	for p := sim; ; p = byID[p.Parent] {
		if p.Span == rootSpanID {
			break
		}
		if p.Parent == "" {
			t.Fatalf("simulate span does not chain to the request root")
		}
	}
}

// TestTraceHeaderJoinsCallerTrace sends a caller-chosen X-Trace-Id and
// asserts the server joins it (even when the rate samples no root —
// header presence forces sampling), echoes it back, and exports spans
// under it.  A TraceSample below 2⁻³² gives the server a tracer whose
// sampling threshold is 0.
func TestTraceHeaderJoinsCallerTrace(t *testing.T) {
	s, ts := newTestServer(t, Config{TraceSample: 0x1p-33})
	tr := s.tracer

	const callerID = "00000000deadbeef"
	raw, _ := json.Marshal(map[string]interface{}{
		"tree": map[string]interface{}{"family": "complete", "n": 31},
	})
	req, err := http.NewRequest("POST", ts.URL+"/v1/embed", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TraceHeader, callerID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("embed status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(TraceHeader); got != callerID {
		t.Fatalf("response trace ID %q, want caller's %q", got, callerID)
	}
	joined := 0
	for _, sd := range tr.Spans() {
		if sd.Trace == callerID {
			joined++
		}
	}
	if joined == 0 {
		t.Fatal("no spans exported under the caller's trace ID")
	}

	// Without the header the request is untraced: no response header.
	resp2, _ := postJSON(t, ts.URL+"/v1/embed", map[string]interface{}{
		"tree": map[string]interface{}{"family": "complete", "n": 31},
	})
	if got := resp2.Header.Get(TraceHeader); got != "" {
		t.Fatalf("unsampled response still carries %s=%q", TraceHeader, got)
	}
}

// TestUniversalPlaceSpan: a sampled universal request records one
// universal.place span per tree under the request root, carrying the
// guest size n and G_n's slot count, with the embedder's phase spans
// beneath it.
func TestUniversalPlaceSpan(t *testing.T) {
	s, ts := newTestServer(t, Config{TraceSample: 1})
	tr := s.tracer
	resp, data := postJSON(t, ts.URL+"/v1/embed", EmbedRequest{
		Tree: &TreeSpec{Family: "random", N: 300, Seed: Seed(3)}, Host: HostUniversal,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("universal status %d: %s", resp.StatusCode, data)
	}
	traceID := resp.Header.Get(TraceHeader)
	var root, place *trace.SpanData
	var phases []trace.SpanData
	for _, sd := range tr.Spans() {
		if sd.Trace != traceID {
			continue
		}
		switch sd.Name {
		case "/v1/embed":
			root = &sd
		case "universal.place":
			if place != nil {
				t.Fatal("one tree recorded two universal.place spans")
			}
			place = &sd
		default:
			phases = append(phases, sd)
		}
	}
	if root == nil || place == nil {
		t.Fatalf("trace %s lacks the request root or a universal.place span", traceID)
	}
	if place.Parent != root.Span {
		t.Errorf("universal.place parent %s, want the request root %s", place.Parent, root.Span)
	}
	want := trace.Attrs{{Key: "n", Val: 300}, {Key: "size", Val: core.Capacity(core.OptimalHeight(300))}}
	if !slices.Equal(place.Attrs, want) {
		t.Errorf("universal.place attrs %v, want %v", place.Attrs, want)
	}
	var hostBuild bool
	for _, sd := range phases {
		if sd.Name == "embed.host-build" && sd.Parent == place.Span {
			hostBuild = true
		}
	}
	if !hostBuild {
		t.Errorf("no embed.host-build span beneath universal.place (have %v)", phases)
	}
}

// TestSimulateSpanOnError: a simulation that dies (here the cycle cap
// is far too small for the workload) must still close its span — marked
// with the error attr — and must NOT stamp the zero-value cycles and
// delivered counters onto it as if they were measurements.
func TestSimulateSpanOnError(t *testing.T) {
	s, ts := newTestServer(t, Config{TraceSample: 1})
	tr := s.tracer
	resp, data := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{
		Tree:      &TreeSpec{Family: "random", N: 150, Seed: Seed(11)},
		Workload:  WorkloadBroadcast,
		MaxCycles: 1,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("cycle-capped simulate status %d, want 400: %s", resp.StatusCode, data)
	}
	var simSpan *trace.SpanData
	for _, sd := range tr.Spans() {
		if sd.Name == "simulate" {
			sd := sd
			simSpan = &sd
		}
	}
	if simSpan == nil {
		t.Fatal("failed simulation exported no simulate span (span leaked unended?)")
	}
	if _, ok := simSpan.Attrs.Get("error"); !ok {
		t.Errorf("failed simulate span is not marked error: %+v", simSpan.Attrs)
	}
	for _, key := range []string{"cycles", "delivered"} {
		if v, ok := simSpan.Attrs.Get(key); ok {
			t.Errorf("failed simulate span carries fabricated %s=%d", key, v)
		}
	}
}

// TestDebugTraceChromeFormat asserts the ?format=chrome view is valid
// Chrome trace-event JSON.
func TestDebugTraceChromeFormat(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceSample: 1})
	if resp, body := postJSON(t, ts.URL+"/v1/embed", map[string]interface{}{
		"tree": map[string]interface{}{"family": "random", "n": 100, "seed": 3},
	}); resp.StatusCode != 200 {
		t.Fatalf("embed status %d: %s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/debug/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}

	resp, err = http.Get(ts.URL + "/debug/trace?format=bogus")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus format status %d, want 400", resp.StatusCode)
	}
}

// TestDebugRoutesGated asserts /debug/trace 404s without a tracer and
// /debug/pprof/ 404s without EnablePprof, and that both serve when
// enabled.
func TestDebugRoutesGated(t *testing.T) {
	_, off := newTestServer(t, Config{})
	for _, path := range []string{"/debug/trace", "/debug/pprof/"} {
		resp, err := http.Get(off.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s status %d without the feature, want 404", path, resp.StatusCode)
		}
	}

	_, on := newTestServer(t, Config{TraceSample: 0.5, EnablePprof: true})
	for _, path := range []string{"/debug/trace", "/debug/pprof/"} {
		resp, err := http.Get(on.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d with the feature on, want 200", path, resp.StatusCode)
		}
	}
}

// TestMetricsPhaseHistograms asserts /metrics exposes the tracer's
// per-phase latency histograms and the queue-depth gauge.
func TestMetricsPhaseHistograms(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceSample: 1})
	// Same guest as the end-to-end test: known to invoke Lemma 2, so the
	// embed.separator phase exists (smaller trees can move every
	// component whole and never call the separator).
	if resp, body := postJSON(t, ts.URL+"/v1/simulate", map[string]interface{}{
		"tree":     map[string]interface{}{"family": "random", "n": 150, "seed": 11},
		"workload": "broadcast",
	}); resp.StatusCode != 200 {
		t.Fatalf("simulate status %d: %s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{
		`xtreesim_trace_phase_duration_seconds_bucket{phase="embed.separator",le="+Inf"}`,
		`xtreesim_trace_phase_duration_seconds_sum{phase="simulate"}`,
		`xtreesim_trace_phase_duration_seconds_count{phase="/v1/simulate"}`,
		"xtreesim_trace_spans_recorded_total",
		"xtreesim_engine_queue_depth",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics is missing %q", want)
		}
	}
}
