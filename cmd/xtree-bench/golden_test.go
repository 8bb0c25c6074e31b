package main

// golden_test.go pins the simulator experiments' tables: E10 (to X(5)),
// E16 and E22 print the cycles, hops, slowdowns, fault counters and
// boundary counts of fixed runs, and any change to how a run is built or
// routed that moves one of them shows up as a diff.  E22's wall times are
// masked.  Regenerate (only for an intended change of a run's output)
// with:
//
//	go test ./cmd/xtree-bench -run TestSimExperimentsGolden -update
import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

const simExperimentsGolden = "sim_experiments.md"

// E22's machine-dependent output: the wall-time cell of a table row, and
// the wall time and CPU count on the one-shard reference line.
var (
	e22WallCell = regexp.MustCompile(`(?m)^(\| \d+ \| )[0-9.]+( \|)`)
	e22RefWall  = regexp.MustCompile(`[0-9.]+ ms over`)
	e22NumCPU   = regexp.MustCompile(`num_cpu=\d+`)
)

// TestSimExperimentsGolden captures E10 (to X(5)), E16 and E22 and compares
// them with testdata/sim_experiments.md byte for byte.  E22 writes no
// BENCH_dist.json here.
func TestSimExperimentsGolden(t *testing.T) {
	oldR, oldOut := *maxR, *distBenchOut
	*maxR, *distBenchOut = 5, ""
	defer func() { *maxR, *distBenchOut = oldR, oldOut }()

	var got strings.Builder
	got.WriteString(captureExperiment(t, e10Simulation))
	got.WriteString(captureExperiment(t, e16FaultSweep))
	e22 := captureExperiment(t, e22DistScaling)
	e22 = e22WallCell.ReplaceAllString(e22, "${1}-${2}")
	e22 = e22RefWall.ReplaceAllString(e22, "- ms over")
	e22 = e22NumCPU.ReplaceAllString(e22, "num_cpu=-")
	got.WriteString(e22)

	path := filepath.Join("testdata", simExperimentsGolden)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if got.String() != string(want) {
		t.Errorf("experiment tables drifted from %s:\ngot:\n%s\nwant:\n%s", path, got.String(), want)
	}
}
