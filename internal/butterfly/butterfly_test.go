package butterfly

import (
	"testing"

	"xtreesim/internal/bintree"
	"xtreesim/internal/bitstr"
	"xtreesim/internal/metrics"
	"xtreesim/internal/xtree"
)

func TestButterflyStructure(t *testing.T) {
	for k := 1; k <= 6; k++ {
		b := NewButterfly(k)
		g := b.AsGraph()
		wantV := int64(k+1) << uint(k)
		if int64(g.N()) != wantV || b.NumVertices() != wantV {
			t.Fatalf("BF(%d): %d vertices, want %d", k, g.N(), wantV)
		}
		// Each of the k level gaps carries 2^k straight + 2^k cross edges.
		if wantE := k << uint(k+1); g.M() != wantE {
			t.Fatalf("BF(%d): %d edges, want %d", k, g.M(), wantE)
		}
		if g.MaxDegree() != 4 && k >= 2 {
			t.Errorf("BF(%d): max degree %d, want 4", k, g.MaxDegree())
		}
		if !g.Connected() {
			t.Errorf("BF(%d) disconnected", k)
		}
		// Non-wrapped butterfly diameter is 2k.
		if d := g.Diameter(); d != 2*k {
			t.Errorf("BF(%d) diameter %d, want %d", k, d, 2*k)
		}
	}
}

func TestButterflyVertexRoundTrip(t *testing.T) {
	b := NewButterfly(5)
	for level := 0; level <= 5; level++ {
		for row := uint64(0); row < 32; row += 7 {
			id := b.VertexID(level, row)
			l2, r2 := int(id>>5), uint64(id)&31
			if l2 != level || r2 != row {
				t.Fatalf("round trip (%d,%d) -> %d -> (%d,%d)", level, row, id, l2, r2)
			}
		}
	}
}

func TestCCCStructure(t *testing.T) {
	for k := 3; k <= 7; k++ {
		c := NewCCC(k)
		g := c.AsGraph()
		if int64(g.N()) != int64(k)<<uint(k) {
			t.Fatalf("CCC(%d): %d vertices", k, g.N())
		}
		// Every vertex has exactly degree 3 (two cycle + one cube).
		hist := g.DegreeHistogram()
		if len(hist) != 1 || hist[3] != g.N() {
			t.Fatalf("CCC(%d) degree histogram %v", k, hist)
		}
		if !g.Connected() {
			t.Errorf("CCC(%d) disconnected", k)
		}
	}
	// k = 2: cycles of length 2 collapse to single edges, degree 3 still.
	g := NewCCC(2).AsGraph()
	if g.N() != 8 {
		t.Errorf("CCC(2) has %d vertices", g.N())
	}
}

// TestCompleteTreeInButterflyDilation1 verifies the positive side of [3]
// quoted in §1: the complete binary tree is a dilation-1 subgraph of the
// butterfly.
func TestCompleteTreeInButterflyDilation1(t *testing.T) {
	for k := 2; k <= 7; k++ {
		b := NewButterfly(k)
		g := b.AsGraph()
		emb := b.CompleteTreeEmbedding()
		// Injectivity.
		seen := map[int64]bool{}
		for _, h := range emb {
			if seen[h] {
				t.Fatalf("BF(%d): embedding not injective", k)
			}
			seen[h] = true
		}
		// Every tree edge is a butterfly edge.
		n := bitstr.NumVertices(k)
		for id := int64(1); id < n; id++ {
			a := bitstr.FromID(id)
			if !g.HasEdge(int(emb[id]), int(emb[a.Parent().ID()])) {
				t.Fatalf("BF(%d): tree edge %v-%v not an edge", k, a, a.Parent())
			}
		}
	}
}

// TestXTreeIntoButterflyDilationGrows measures the horizontal-edge
// stretch of the natural X-tree embedding, which places X(k)'s vertices
// as CompleteTreeEmbedding places B_k's: it must grow with k (constant
// dilation is impossible by [3]).
func TestXTreeIntoButterflyDilationGrows(t *testing.T) {
	dil := func(k int) int {
		b := NewButterfly(k)
		g := b.AsGraph()
		emb := b.CompleteTreeEmbedding()
		x := xtree.New(k)
		max := 0
		x.Vertices(func(a bitstr.Addr) bool {
			if s, ok := a.Successor(); ok {
				if d := g.Distance(int(emb[a.ID()]), int(emb[s.ID()])); d > max {
					max = d
				}
			}
			return true
		})
		return max
	}
	d3, d6 := dil(3), dil(6)
	if d3 < 2 {
		t.Errorf("BF(3) x-tree dilation %d suspiciously small", d3)
	}
	if d6 <= d3 {
		t.Errorf("x-tree-in-butterfly dilation did not grow: %d -> %d", d3, d6)
	}
}

// TestButterflyAsMetricsHost smoke-checks interoperability with the
// metrics package.
func TestButterflyAsMetricsHost(t *testing.T) {
	b := NewButterfly(4)
	g := b.AsGraph()
	tr := bintree.Complete(4)
	emb := b.CompleteTreeEmbedding()
	m := &metrics.Embedding{Guest: tr, Host: metrics.GraphHost{G: g}, Map: emb}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := m.Dilation(); d != 1 {
		t.Errorf("complete-tree-in-butterfly dilation %d", d)
	}
	if !m.IsInjective() {
		t.Error("not injective")
	}
}

func TestGuards(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("NewButterfly(-1)", func() { NewButterfly(-1) })
	mustPanic("NewButterfly(25)", func() { NewButterfly(25) })
	mustPanic("NewCCC(0)", func() { NewCCC(0) })
	b := NewButterfly(3)
	mustPanic("VertexID level", func() { b.VertexID(4, 0) })
	mustPanic("VertexID row", func() { b.VertexID(0, 8) })
	c := NewCCC(3)
	mustPanic("CCC VertexID pos", func() { c.VertexID(0, 3) })
	mustPanic("CCC VertexID word", func() { c.VertexID(8, 0) })
}
