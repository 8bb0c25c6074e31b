package main

// tracesmoke.go is the `-trace-smoke` self-check behind `make
// trace-smoke` and the CI trace job: it boots a fully-sampled server
// with pprof on, fires one /v1/simulate request, and validates the
// one-trace acceptance criterion against the real /debug/trace export —
// the response's X-Trace-Id must resolve to a single trace holding the
// server root span, the engine phases, at least one separator span
// carrying its depth attribute, and a simulate span carrying the run's
// cycles, delivered and hops counters, with no per-event sim.* spans.
// Any violation exits non-zero.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"xtreesim/internal/server"
	"xtreesim/internal/trace"
)

func runTraceSmoke() error {
	s := server.New(server.Config{Version: "trace-smoke", TraceSample: 1, EnablePprof: true})
	if err := s.Start(); err != nil {
		return err
	}
	defer shutdown(s)
	url := s.URL()

	// One simulate request on a fresh server: the cache is cold, so the
	// embedder (and its separator spans) must run.  n=150/seed=11 is a
	// guest known to invoke Lemma 2.
	raw, err := json.Marshal(server.SimulateRequest{
		Tree:     &server.TreeSpec{Family: "random", N: 150, Seed: server.Seed(11)},
		Workload: "broadcast",
	})
	if err != nil {
		return err
	}
	resp, err := http.Post(url+"/v1/simulate", "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		return fmt.Errorf("simulate: status %d: %s", resp.StatusCode, body)
	}
	traceID := resp.Header.Get(server.TraceHeader)
	if _, ok := trace.ParseID(traceID); !ok {
		return fmt.Errorf("response %s header %q is not a span ID", server.TraceHeader, traceID)
	}

	spans, err := fetchTraceJSONL(url)
	if err != nil {
		return err
	}
	if err := validateTrace(spans, traceID); err != nil {
		return err
	}
	fmt.Printf("trace-smoke: one-trace criterion ok (trace %s, %d spans)\n", traceID, len(spans))

	// The profile endpoints must answer when -pprof-equivalent config is
	// on (Index renders without blocking; the sampling profiles would).
	resp, err = http.Get(url + "/debug/pprof/")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		return fmt.Errorf("/debug/pprof/: status %d", resp.StatusCode)
	}
	return nil
}

// fetchTraceJSONL pulls /debug/trace and schema-validates every line as
// a SpanData object with well-formed IDs.
func fetchTraceJSONL(url string) ([]trace.SpanData, error) {
	resp, err := http.Get(url + "/debug/trace")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return nil, fmt.Errorf("/debug/trace: status %d", resp.StatusCode)
	}
	var out []trace.SpanData
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var sd trace.SpanData
		if err := json.Unmarshal(sc.Bytes(), &sd); err != nil {
			return nil, fmt.Errorf("JSONL schema: bad line %q: %w", sc.Text(), err)
		}
		if _, ok := trace.ParseID(sd.Trace); !ok {
			return nil, fmt.Errorf("JSONL schema: bad trace ID in %q", sc.Text())
		}
		if _, ok := trace.ParseID(sd.Span); !ok {
			return nil, fmt.Errorf("JSONL schema: bad span ID in %q", sc.Text())
		}
		if sd.Name == "" || sd.Start <= 0 || sd.Dur < 0 {
			return nil, fmt.Errorf("JSONL schema: missing fields in %q", sc.Text())
		}
		out = append(out, sd)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// validateTrace checks the one-trace acceptance criterion.
func validateTrace(spans []trace.SpanData, traceID string) error {
	counts := map[string]int{}
	var rootID, simID string
	var simAttrs trace.Attrs
	sepDepths := 0
	for _, sd := range spans {
		if sd.Trace != traceID {
			continue
		}
		if strings.HasPrefix(sd.Name, "sim.") {
			return fmt.Errorf("trace %s carries a per-event %q span", traceID, sd.Name)
		}
		counts[sd.Name]++
		switch sd.Name {
		case "/v1/simulate":
			if sd.Parent != "" {
				return fmt.Errorf("root span %s has parent %s", sd.Span, sd.Parent)
			}
			rootID = sd.Span
		case "simulate":
			simID, simAttrs = sd.Span, sd.Attrs
		case "embed.separator":
			if _, ok := sd.Attrs.Get("depth"); ok {
				sepDepths++
			}
		}
	}
	if len(counts) == 0 {
		return fmt.Errorf("no exported spans carry trace %s", traceID)
	}
	for _, name := range []string{"/v1/simulate", "simulate", "engine.queue-wait",
		"engine.canonical-encode", "engine.cache-lookup", "engine.embed-compute",
		"embed.host-build", "embed.separator"} {
		if counts[name] == 0 {
			return fmt.Errorf("trace %s is missing %q spans (have %v)", traceID, name, counts)
		}
	}
	if sepDepths == 0 {
		return fmt.Errorf("no separator span carries a depth attribute")
	}
	if rootID == "" || simID == "" {
		return fmt.Errorf("missing root or simulate span: %v", counts)
	}
	// Hop-level detail belongs to the event stream; the simulate span
	// carries the run's counters.
	for _, key := range []string{"cycles", "delivered", "hops"} {
		if v, _ := simAttrs.Get(key); v <= 0 {
			return fmt.Errorf("simulate span %s = %d, want > 0 (attrs %v)", key, v, simAttrs)
		}
	}
	return nil
}
