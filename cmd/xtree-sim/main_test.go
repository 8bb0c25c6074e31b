package main

import (
	"strings"
	"testing"
)

func TestRunWorkloadsAndPlacements(t *testing.T) {
	for _, wl := range []string{"divide-conquer", "broadcast", "exchange", "scan"} {
		var sb strings.Builder
		if err := run(&sb, "random", 240, 1, wl, 2, "monien", 0); err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		out := sb.String()
		if !strings.Contains(out, "slowdown") || !strings.Contains(out, "host=X(3)") {
			t.Errorf("%s output = %q", wl, out)
		}
	}
	for _, pl := range []string{"dfs", "bfs", "random"} {
		var sb strings.Builder
		if err := run(&sb, "complete", 240, 1, "broadcast", 1, pl, 0); err != nil {
			t.Fatalf("%s: %v", pl, err)
		}
		if !strings.Contains(sb.String(), "pack dilation=") {
			t.Errorf("%s output = %q", pl, sb.String())
		}
	}
}

// TestRunPartitioned pins the CLI's distsim path: the same run sharded
// over 4 workers must print identical cycle counts plus the partition
// banner.
func TestRunPartitioned(t *testing.T) {
	var single, dist strings.Builder
	if err := run(&single, "random", 240, 1, "divide-conquer", 2, "monien", 0); err != nil {
		t.Fatal(err)
	}
	if err := run(&dist, "random", 240, 1, "divide-conquer", 2, "monien", 4); err != nil {
		t.Fatal(err)
	}
	do := dist.String()
	if !strings.Contains(do, "partitions: 4") {
		t.Errorf("no partition banner in %q", do)
	}
	if got := strings.Replace(do, "partitions: 4 epoch-barrier shards (results identical to single-process)\n", "", 1); got != single.String() {
		t.Errorf("partitioned report diverges:\n dist:   %q\n single: %q", got, single.String())
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "random", 100, 1, "nope", 1, "monien", 0); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run(&sb, "random", 100, 1, "scan", 1, "teleport", 0); err == nil {
		t.Error("unknown placement accepted")
	}
	if err := run(&sb, "nofamily", 100, 1, "scan", 1, "monien", 0); err == nil {
		t.Error("unknown family accepted")
	}
}
