package graph

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// path returns the path graph 0-1-...-(n-1).
func path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// cycle returns the cycle graph on n vertices.
func cycle(n int) *Graph {
	g := path(n)
	g.AddEdge(n-1, 0)
	return g
}

func TestAddEdgeDedup(t *testing.T) {
	g := New(3)
	if !g.AddEdge(0, 1) {
		t.Error("first AddEdge returned false")
	}
	if g.AddEdge(1, 0) {
		t.Error("duplicate AddEdge returned true")
	}
	if g.AddEdge(2, 2) {
		t.Error("self-loop AddEdge returned true")
	}
	if g.M() != 1 {
		t.Errorf("M = %d, want 1", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("HasEdge symmetric lookup failed")
	}
	if g.HasEdge(0, 2) {
		t.Error("HasEdge(0,2) true")
	}
}

// TestNewSizedAddNewEdge builds a triangle plus a pendant vertex on lists
// sized one short for vertex 1: the overflowing list must reallocate on
// its own instead of writing into its neighbor's room.
func TestNewSizedAddNewEdge(t *testing.T) {
	g := NewSized([]int{2, 2, 2, 1})
	g.AddNewEdge(0, 1)
	g.AddNewEdge(1, 2)
	g.AddNewEdge(2, 0)
	g.AddNewEdge(1, 3)
	g.SortAdjacency()
	want := [][]int32{{1, 2}, {0, 2, 3}, {0, 1}, {1}}
	for u, w := range want {
		if got := g.Neighbors(u); !slices.Equal(got, w) {
			t.Errorf("Neighbors(%d) = %v, want %v", u, got, w)
		}
	}
	if g.M() != 4 {
		t.Errorf("M = %d, want 4", g.M())
	}
}

func TestBFSAndDistance(t *testing.T) {
	g := path(5)
	dist := g.BFSFrom(0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if dist[i] != want {
			t.Errorf("BFSFrom(0)[%d] = %d, want %d", i, dist[i], want)
		}
	}
	if d := g.Distance(0, 4); d != 4 {
		t.Errorf("Distance(0,4) = %d", d)
	}
	if d := g.Distance(2, 2); d != 0 {
		t.Errorf("Distance(2,2) = %d", d)
	}
	g2 := New(4)
	g2.AddEdge(0, 1)
	if d := g2.Distance(0, 3); d != -1 {
		t.Errorf("disconnected Distance = %d, want -1", d)
	}
	if d := g2.BFSFrom(0)[3]; d != -1 {
		t.Errorf("disconnected BFS dist = %d, want -1", d)
	}
}

func TestShortestPath(t *testing.T) {
	g := cycle(6)
	p := g.ShortestPath(0, 3)
	if len(p) != 4 || p[0] != 0 || p[3] != 3 {
		t.Errorf("ShortestPath(0,3) = %v", p)
	}
	for i := 0; i+1 < len(p); i++ {
		if !g.HasEdge(p[i], p[i+1]) {
			t.Errorf("path step %d-%d not an edge", p[i], p[i+1])
		}
	}
	if p := g.ShortestPath(2, 2); len(p) != 1 || p[0] != 2 {
		t.Errorf("trivial path = %v", p)
	}
	g2 := New(2)
	if p := g2.ShortestPath(0, 1); p != nil {
		t.Errorf("disconnected path = %v", p)
	}
}

func TestTreeAndConnectivity(t *testing.T) {
	if !path(7).IsTree() {
		t.Error("path should be a tree")
	}
	if cycle(7).IsTree() {
		t.Error("cycle should not be a tree")
	}
	if !New(0).Connected() {
		t.Error("empty graph should count as connected")
	}
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if g.Connected() {
		t.Error("two components reported connected")
	}
}

func TestDiameter(t *testing.T) {
	if d := path(5).Diameter(); d != 4 {
		t.Errorf("path diameter = %d", d)
	}
	if d := cycle(6).Diameter(); d != 3 {
		t.Errorf("cycle diameter = %d", d)
	}
	if d := New(0).Diameter(); d != -1 {
		t.Errorf("empty diameter = %d", d)
	}
	if d := New(1).Diameter(); d != 0 {
		t.Errorf("single diameter = %d", d)
	}
}

func TestEdgesSortedUnique(t *testing.T) {
	g := New(4)
	g.AddEdge(3, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 0)
	es := g.Edges()
	want := [][2]int{{0, 1}, {0, 2}, {1, 3}}
	if len(es) != len(want) {
		t.Fatalf("Edges = %v", es)
	}
	for i := range want {
		if es[i] != want[i] {
			t.Errorf("Edges[%d] = %v, want %v", i, es[i], want[i])
		}
	}
}

func TestSubgraphCloneDegrees(t *testing.T) {
	g := path(5)
	h := cycle(5)
	c := h.Clone()
	if c.N() != h.N() || c.M() != h.M() || !slices.Equal(c.Edges(), h.Edges()) {
		t.Error("clone mismatch")
	}
	c.AddEdge(0, 2)
	if h.HasEdge(0, 2) {
		t.Error("clone shares storage with original")
	}
	if g.MaxDegree() != 2 {
		t.Errorf("path MaxDegree = %d", g.MaxDegree())
	}
	hist := g.DegreeHistogram()
	if hist[1] != 2 || hist[2] != 3 {
		t.Errorf("path degree histogram = %v", hist)
	}
}

func TestWriteDOT(t *testing.T) {
	g := path(3)
	var sb strings.Builder
	if err := g.WriteDOT(&sb, "p3", nil); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, frag := range []string{"graph \"p3\"", "n0 -- n1", "n1 -- n2"} {
		if !strings.Contains(out, frag) {
			t.Errorf("DOT output missing %q:\n%s", frag, out)
		}
	}
}

// randomConnected builds a random connected graph on n vertices by first
// drawing a random spanning tree and then sprinkling extra edges.
func randomConnected(r *rand.Rand, n, extra int) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v, r.Intn(v))
	}
	for i := 0; i < extra; i++ {
		g.AddEdge(r.Intn(n), r.Intn(n))
	}
	return g
}

func TestPropertyDistanceSymmetricAndTriangle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func() bool {
		n := 2 + r.Intn(30)
		g := randomConnected(r, n, r.Intn(2*n))
		u, v, w := r.Intn(n), r.Intn(n), r.Intn(n)
		duv, dvu := g.Distance(u, v), g.Distance(v, u)
		if duv != dvu {
			return false
		}
		// triangle inequality
		return g.Distance(u, w) <= duv+g.Distance(v, w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyBFSMatchesDistance(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	f := func() bool {
		n := 2 + r.Intn(25)
		g := randomConnected(r, n, r.Intn(n))
		src := r.Intn(n)
		dist := g.BFSFrom(src)
		for v := 0; v < n; v++ {
			if dist[v] != g.Distance(src, v) {
				return false
			}
			if p := g.ShortestPath(src, v); len(p)-1 != dist[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertyRandomTreeIsTree(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	f := func() bool {
		n := 1 + r.Intn(40)
		return randomConnected(r, n, 0).IsTree()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
