package hypercube

import (
	"math/rand"
	"testing"

	"xtreesim/internal/bitstr"
	"xtreesim/internal/graph"
	"xtreesim/internal/xtree"
)

func TestBasics(t *testing.T) {
	h := New(4)
	if h.NumVertices() != 16 || h.Dim() != 4 {
		t.Fatalf("Q4 basics wrong: %d vertices", h.NumVertices())
	}
	if d := h.Distance(0b0000, 0b1011); d != 3 {
		t.Errorf("Distance = %d", d)
	}
}

// TestAsGraph holds Distance to breadth-first distances on Q3 built as a
// graph: the labels of every edge differ in one bit.
func TestAsGraph(t *testing.T) {
	h := New(3)
	g := graph.New(8)
	for v := 0; v < 8; v++ {
		for i := 0; i < 3; i++ {
			g.AddEdge(v, v^1<<i)
		}
	}
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			if g.Distance(u, v) != h.Distance(uint64(u), uint64(v)) {
				t.Fatalf("distance mismatch %d-%d", u, v)
			}
		}
	}
}

// TestInorderDilation2 verifies the classic result the paper quotes: the
// inorder embedding of B_r into Q_{r+1} is injective with dilation 2, and
// child-1 edges have dilation exactly 1.
func TestInorderDilation2(t *testing.T) {
	const r = 6
	h := New(r + 1)
	seen := map[uint64]bitstr.Addr{}
	n := bitstr.NumVertices(r)
	for id := int64(0); id < n; id++ {
		a := bitstr.FromID(id)
		img := Inorder(a, r)
		if img >= uint64(h.NumVertices()) {
			t.Fatalf("image %b outside Q%d", img, r+1)
		}
		if prev, dup := seen[img]; dup {
			t.Fatalf("inorder collision: %v and %v -> %b", prev, a, img)
		}
		seen[img] = a
		if a.Level < r {
			d0 := h.Distance(img, Inorder(a.Child(0), r))
			d1 := h.Distance(img, Inorder(a.Child(1), r))
			if d0 > 2 || d1 > 2 {
				t.Fatalf("inorder dilation > 2 at %v (%d,%d)", a, d0, d1)
			}
			if d1 != 1 {
				t.Errorf("child-1 edge of %v has distance %d, want 1", a, d1)
			}
		}
	}
}

// TestInorderDistancePlusOne checks the stronger property: tree distance Δ
// implies cube distance ≤ Δ+1.
func TestInorderDistancePlusOne(t *testing.T) {
	const r = 5
	h := New(r + 1)
	// Tree distance in B_r between a and b: up to LCA and down.
	treeDist := func(a, b bitstr.Addr) int {
		l := bitstr.CommonPrefixLen(a, b)
		return (a.Level - l) + (b.Level - l)
	}
	n := bitstr.NumVertices(r)
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 2000; trial++ {
		a := bitstr.FromID(rng.Int63n(n))
		b := bitstr.FromID(rng.Int63n(n))
		td := treeDist(a, b)
		hd := h.Distance(Inorder(a, r), Inorder(b, r))
		if hd > td+1 {
			t.Fatalf("inorder stretch: tree %d cube %d for %v,%v", td, hd, a, b)
		}
	}
}

// TestChiLemma3 verifies Lemma 3: χ embeds X(r) injectively into Q_{r+1}
// and X-tree distance Δ implies Hamming distance ≤ Δ+1.
func TestChiLemma3(t *testing.T) {
	const r = 6
	x := xtree.New(r)
	h := New(r + 1)
	g := x.AsGraph()
	n := x.NumVertices()

	// Injectivity.
	seen := map[uint64]bitstr.Addr{}
	for id := int64(0); id < n; id++ {
		a := bitstr.FromID(id)
		img := Chi(a, r)
		if prev, dup := seen[img]; dup {
			t.Fatalf("chi collision: %v and %v", prev, a)
		}
		seen[img] = a
	}

	// Edges map to distance ≤ 2 (Δ=1 ⇒ ≤2), and horizontal edges to
	// distance exactly 1 (the Gray-code property).
	x.Vertices(func(a bitstr.Addr) bool {
		if s, ok := a.Successor(); ok {
			if d := h.Distance(Chi(a, r), Chi(s, r)); d != 1 {
				t.Fatalf("horizontal edge %v-%v maps to distance %d", a, s, d)
			}
		}
		if a.Level < r {
			for _, c := range []bitstr.Addr{a.Child(0), a.Child(1)} {
				if d := h.Distance(Chi(a, r), Chi(c, r)); d > 2 {
					t.Fatalf("tree edge %v-%v maps to distance %d", a, c, d)
				}
			}
		}
		return true
	})

	// Random pairs: Hamming ≤ X-tree distance + 1.
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 1500; trial++ {
		a := bitstr.FromID(rng.Int63n(n))
		b := bitstr.FromID(rng.Int63n(n))
		xd := g.Distance(int(a.ID()), int(b.ID()))
		hd := h.Distance(Chi(a, r), Chi(b, r))
		if hd > xd+1 {
			t.Fatalf("chi stretch: xtree %d cube %d for %v,%v", xd, hd, a, b)
		}
	}
}

func TestChiInverse(t *testing.T) {
	const r = 8
	n := bitstr.NumVertices(r)
	for id := int64(0); id < n; id++ {
		a := bitstr.FromID(id)
		got, ok := ChiInverseLevel(Chi(a, r), r)
		if !ok || got != a {
			t.Fatalf("ChiInverse(Chi(%v)) = %v, %v", a, got, ok)
		}
	}
	if _, ok := ChiInverseLevel(0, r); ok {
		t.Error("label 0 should not invert")
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
	mustPanic("New(-1)", func() { New(-1) })
	mustPanic("New(63)", func() { New(63) })
	mustPanic("Inorder too deep", func() { Inorder(bitstr.MustParse("0101"), 2) })
	mustPanic("Chi too deep", func() { Chi(bitstr.MustParse("0101"), 2) })
}

func TestChiInverseRejects(t *testing.T) {
	// A label with too many trailing zeros cannot be an image.
	if _, ok := ChiInverseLevel(1<<20, 4); ok {
		t.Error("deep-zero label inverted")
	}
	// Valid round trip at the root.
	a, ok := ChiInverseLevel(Chi(bitstr.Root(), 5), 5)
	if !ok || !a.IsRoot() {
		t.Errorf("root inverse = %v %v", a, ok)
	}
}
