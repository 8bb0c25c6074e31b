package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// BENCHMARK.json at the repository root must describe exactly the
// workloads and metrics this program defines and reports.
func TestManifestMatchesDefinitions(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Command, []string{"bash", "xbench/run.sh"}) || !reflect.DeepEqual(m.Paths, []string{"xbench"}) {
		t.Errorf("command %v, paths %v", m.Command, m.Paths)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads, want %d", len(m.Workloads), len(workloadDefs))
	}
	for i, d := range workloadDefs {
		if m.Workloads[i].Name != d.name || m.Workloads[i].Why != d.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, m.Workloads[i], d.name, d.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != d.bound) {
				t.Errorf("%s %d: %+v, want %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
}
