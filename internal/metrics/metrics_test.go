package metrics

import (
	"math/rand"
	"testing"

	"xtreesim/internal/bintree"
	"xtreesim/internal/graph"
)

// hostPath returns a path host with n vertices.
func hostPath(n int) GraphHost {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return GraphHost{g}
}

func TestIdentityEmbedding(t *testing.T) {
	guest := bintree.Path(5)
	e := &Embedding{Guest: guest, Host: hostPath(5), Map: []int64{0, 1, 2, 3, 4}}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := e.Dilation(); d != 1 {
		t.Errorf("dilation = %d", d)
	}
	if l := e.MaxLoad(); l != 1 {
		t.Errorf("load = %d", l)
	}
	if !e.IsInjective() {
		t.Error("identity not injective")
	}
	if x := e.Expansion(); x != 1 {
		t.Errorf("expansion = %v", x)
	}
	if a := e.AverageDilation(); a != 1 {
		t.Errorf("avg dilation = %v", a)
	}
}

func TestStretchedEmbedding(t *testing.T) {
	guest := bintree.Path(3)
	// Map 0->0, 1->4, 2->2 on a 6-path: edges stretch 4 and 2.
	e := &Embedding{Guest: guest, Host: hostPath(6), Map: []int64{0, 4, 2}}
	if d := e.Dilation(); d != 4 {
		t.Errorf("dilation = %d, want 4", d)
	}
	if a := e.AverageDilation(); a != 3 {
		t.Errorf("avg = %v", a)
	}
	if e.Expansion() != 2 {
		t.Errorf("expansion = %v", e.Expansion())
	}
}

func TestLoads(t *testing.T) {
	guest := bintree.Path(6)
	e := &Embedding{Guest: guest, Host: hostPath(3), Map: []int64{0, 0, 1, 1, 1, 2}}
	if l := e.MaxLoad(); l != 3 {
		t.Errorf("load = %d", l)
	}
	if e.IsInjective() {
		t.Error("non-injective reported injective")
	}
	loads := e.Loads()
	if loads[1] != 3 || loads[0] != 2 || loads[2] != 1 {
		t.Errorf("loads = %v", loads)
	}
}

func TestValidateErrors(t *testing.T) {
	guest := bintree.Path(3)
	e := &Embedding{Guest: guest, Host: hostPath(3), Map: []int64{0, 1}}
	if err := e.Validate(); err == nil {
		t.Error("short map accepted")
	}
	e.Map = []int64{0, 1, 7}
	if err := e.Validate(); err == nil {
		t.Error("out-of-range vertex accepted")
	}
	e.Map = []int64{0, 1, -1}
	if err := e.Validate(); err == nil {
		t.Error("negative vertex accepted")
	}
}

func TestSummarize(t *testing.T) {
	guest := bintree.Path(4)
	e := &Embedding{Guest: guest, Host: hostPath(8), Map: []int64{0, 1, 2, 3}}
	r := e.Summarize()
	if r.GuestN != 4 || r.HostN != 8 || r.Dilation != 1 || r.MaxLoad != 1 || !r.Injective {
		t.Errorf("report = %+v", r)
	}
	if r.Expansion != 2 {
		t.Errorf("expansion = %v", r.Expansion)
	}
	if r.String() == "" {
		t.Error("empty string rendering")
	}
}

func TestEdgeCongestion(t *testing.T) {
	// Star host: center 0, leaves 1..4.  Guest path 1-2-3-4 mapped to the
	// leaves routes every edge through the center.
	g := graph.New(5)
	for i := 1; i <= 4; i++ {
		g.AddEdge(0, i)
	}
	guest := bintree.Path(4)
	e := &Embedding{Guest: guest, Host: GraphHost{g}, Map: []int64{1, 2, 3, 4}}
	max, mean := EdgeCongestion(e, g)
	// Edges (1,2),(2,3),(3,4) each cross two star edges; host edge (0,2)
	// and (0,3) carry 2 each.
	if max != 2 {
		t.Errorf("max congestion = %d, want 2", max)
	}
	if mean != 6.0/4.0 {
		t.Errorf("mean congestion = %v", mean)
	}
}

// lineHost is a host with O(1) distances (vertices on a line), so the
// edge passes compared below are not drowned in BFS time.
type lineHost struct{ n int64 }

func (h lineHost) NumVertices() int64 { return h.n }
func (h lineHost) Distance(u, v int64) int {
	if u > v {
		u, v = v, u
	}
	return int(v - u)
}

// TestDilationStatsMatchesDilation: the one-pass pair equals Dilation and
// AverageDilation, on a guest above the 16,384 nodes where Dilation used
// to fan out over goroutines and on small guests.
func TestDilationStatsMatchesDilation(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, n := range []int{1<<14 + 500, 1000, 4, 1, 0} {
		guest := bintree.RandomAttachment(n, rng)
		m := make([]int64, n)
		for i := range m {
			m[i] = int64(rng.Intn(n))
		}
		e := &Embedding{Guest: guest, Host: lineHost{int64(n)}, Map: m}
		dil, avg := e.DilationStats()
		if dil != e.Dilation() || avg != e.AverageDilation() {
			t.Fatalf("n=%d: DilationStats = (%d, %v), Dilation %d, AverageDilation %v",
				n, dil, avg, e.Dilation(), e.AverageDilation())
		}
	}
	small := &Embedding{Guest: bintree.Path(4), Host: hostPath(4), Map: []int64{0, 1, 2, 3}}
	if dil, avg := small.DilationStats(); dil != 1 || avg != 1 {
		t.Errorf("identity path: DilationStats = (%d, %v), want (1, 1)", dil, avg)
	}
}
