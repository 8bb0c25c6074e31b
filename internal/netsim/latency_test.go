package netsim

import (
	"math/rand"
	"slices"
	"testing"

	"xtreesim/internal/bintree"
	"xtreesim/internal/core"
)

func TestLatencyStatsOnIdealMachine(t *testing.T) {
	// One hop per message on the ideal machine: every latency is 1.
	tr := bintree.Complete(5)
	res := runOnTree(t, tr, NewBroadcast(tr))
	if res.LatencyP50 != 1 || res.LatencyP99 != 1 || res.LatencyMax != 1 {
		t.Errorf("ideal broadcast latencies = %d/%d/%d, want 1/1/1",
			res.LatencyP50, res.LatencyP99, res.LatencyMax)
	}
}

func TestLatencyOrderingAndBounds(t *testing.T) {
	tr := bintree.CompleteN(int(core.Capacity(4)))
	res, err := Run(embeddedXTreeConfig(t, tr), NewDivideConquer(tr, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !(res.LatencyP50 <= res.LatencyP99 && res.LatencyP99 <= res.LatencyMax) {
		t.Errorf("latency percentiles out of order: %d/%d/%d",
			res.LatencyP50, res.LatencyP99, res.LatencyMax)
	}
	if res.LatencyMax > res.Cycles {
		t.Errorf("max latency %d exceeds makespan %d", res.LatencyMax, res.Cycles)
	}
	if res.LatencyP50 < 1 {
		t.Errorf("median latency %d < 1", res.LatencyP50)
	}
	// With dilation ≤ 3 and bounded queuing, even the tail stays small.
	if res.LatencyMax > 64 {
		t.Errorf("tail latency %d suspiciously large", res.LatencyMax)
	}
}

func TestLatencyPercentilesOnTinySamples(t *testing.T) {
	// finish reads indexes len/2 and len*99/100 of the sorted latencies:
	// make the degenerate 1–3-message samples explicit so a refactor
	// can't walk them off either end.
	cases := []struct {
		lats          []int
		p50, p99, max int
	}{
		{[]int{5}, 5, 5, 5},
		{[]int{9, 3}, 9, 9, 9}, // median of 2 is the upper one
		{[]int{11, 2, 5}, 5, 11, 11},
	}
	for _, c := range cases {
		r := &run{}
		for _, l := range c.lats {
			r.latencies.add(l)
		}
		r.finish(0)
		if r.res.LatencyP50 != c.p50 || r.res.LatencyP99 != c.p99 || r.res.LatencyMax != c.max {
			t.Errorf("latencies %v: got %d/%d/%d, want %d/%d/%d", c.lats,
				r.res.LatencyP50, r.res.LatencyP99, r.res.LatencyMax, c.p50, c.p99, c.max)
		}
	}
}

// TestLatencyWalkMatchesSortedSlice holds the counting walk to the rule it
// replaced, sorted[n/2], sorted[n*99/100] and sorted[n-1], on random
// multisets, narrow ones full of repeats and wide ones with gaps.
func TestLatencyWalkMatchesSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 99, 100, 101, 10000} {
		for _, spread := range []int{1, 3, 50, 5000} {
			lats := make([]int, n)
			var h latencies
			for i := range lats {
				lats[i] = rng.Intn(spread)
				h.add(lats[i])
			}
			slices.Sort(lats)
			p50, p99, most := h.percentiles()
			if p50 != lats[n/2] || p99 != lats[n*99/100] || most != lats[n-1] {
				t.Errorf("n=%d spread=%d: walk reads %d/%d/%d, sorted slice %d/%d/%d", n, spread,
					p50, p99, most, lats[n/2], lats[n*99/100], lats[n-1])
			}
		}
	}
	var empty latencies
	if p50, p99, most := empty.percentiles(); p50 != 0 || p99 != 0 || most != 0 {
		t.Errorf("no deliveries read %d/%d/%d, want zeros", p50, p99, most)
	}
}

func TestLatencySingleDeliveredMessage(t *testing.T) {
	// One delivered message end to end: all three percentiles collapse
	// onto its latency.
	tr := bintree.Path(2)
	res := runOnTree(t, tr, NewBroadcast(tr))
	if res.Delivered != 1 {
		t.Fatalf("delivered %d, want 1", res.Delivered)
	}
	if res.LatencyP50 != 1 || res.LatencyP99 != 1 || res.LatencyMax != 1 {
		t.Errorf("single-message latencies %d/%d/%d, want 1/1/1",
			res.LatencyP50, res.LatencyP99, res.LatencyMax)
	}
}

func TestLatencyEmptyRun(t *testing.T) {
	tr := bintree.Path(1)
	res := runOnTree(t, tr, NewDivideConquer(tr, 1))
	if res.LatencyMax != 0 || res.LatencyP50 != 0 {
		t.Errorf("no-message run has latencies %+v", res)
	}
}
