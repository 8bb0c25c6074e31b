package universal

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"xtreesim/internal/bintree"
	"xtreesim/internal/bitstr"
	"xtreesim/internal/graph"
	"xtreesim/internal/xtree"
)

func TestNewForNodes(t *testing.T) {
	u, err := NewForNodes(1 << 7) // 128 ≠ 2^t − 16
	if err == nil {
		t.Errorf("accepted n=128: %v", u)
	}
	u, err = NewForNodes(112) // 2^7 − 16, r = 2
	if err != nil {
		t.Fatal(err)
	}
	if u.N() != 112 || u.X.Height() != 2 {
		t.Fatalf("G_112: n=%d r=%d", u.N(), u.X.Height())
	}
}

// TestTheorem4DegreeBound verifies deg(G_n) ≤ 415 and that the bound is
// nearly attained on large enough instances.
func TestTheorem4DegreeBound(t *testing.T) {
	for _, r := range []int{2, 4, 6} {
		u := NewForHeight(r)
		if d := u.MaxDegree(); d > DegreeBound {
			t.Errorf("r=%d: degree %d > %d", r, d, DegreeBound)
		}
	}
	// X(6) is deep and wide enough to contain a vertex with the full
	// 25-vertex N-closure.
	u := NewForHeight(6)
	if d := u.MaxDegree(); d != DegreeBound {
		t.Errorf("r=6: max degree %d, want the tight %d", d, DegreeBound)
	}
}

// TestTheorem4Spanning embeds trees from every family as spanning trees.
func TestTheorem4Spanning(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, r := range []int{2, 3, 4} {
		u := NewForHeight(r)
		n := u.N()
		for _, f := range bintree.Families {
			tr, err := bintree.Generate(f, n, rng)
			if err != nil {
				t.Fatal(err)
			}
			assign, err := u.Embed(tr)
			if err != nil {
				t.Fatalf("%s r=%d: %v", f, r, err)
			}
			if err := u.IsSpanning(tr, assign); err != nil {
				t.Errorf("%s r=%d: %v", f, r, err)
			}
		}
	}
}

func TestEmbedSizeMismatch(t *testing.T) {
	u := NewForHeight(2)
	tr := bintree.Path(50)
	if _, err := u.Embed(tr); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestIsSpanningRejects(t *testing.T) {
	u := NewForHeight(4)
	tr := bintree.Path(u.N())
	assign, err := u.Embed(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate slot.
	bad := append([]int(nil), assign...)
	bad[0] = bad[1]
	if err := u.IsSpanning(tr, bad); err == nil {
		t.Error("duplicate slot accepted")
	}
	// Non-edge: put the path endpoints 0 and 1 (adjacent in the guest)
	// onto the opposite corners of the deepest level, which are not
	// N-related.
	bad = append([]int(nil), assign...)
	far := int(bitstr.MustParse("0000").ID()) * SlotsPerVertex
	near := int(bitstr.MustParse("1111").ID()) * SlotsPerVertex
	bad[0], bad[1] = far, near
	// Restore the bijection by handing the displaced slots back.
	for v := range bad {
		if v != 0 && bad[v] == far {
			bad[v] = assign[0]
		}
		if v != 1 && bad[v] == near {
			bad[v] = assign[1]
		}
	}
	if err := u.IsSpanning(tr, bad); err == nil {
		t.Error("stretched assignment accepted (0000 and 1111 are not N-related)")
	}
}

// addEdgeConstruction builds G_n the direct way: every N-related slot pair
// through the deduplicating graph.AddEdge.  It is quadratic in the degree
// and serves as the oracle for NewForHeight.
func addEdgeConstruction(r int) *graph.Graph {
	x := xtree.New(r)
	g := graph.New(int(x.NumVertices()) * SlotsPerVertex)
	x.Vertices(func(a bitstr.Addr) bool {
		aID := int(a.ID())
		for s := 0; s < SlotsPerVertex; s++ {
			for q := s + 1; q < SlotsPerVertex; q++ {
				g.AddEdge(aID*SlotsPerVertex+s, aID*SlotsPerVertex+q)
			}
		}
		for _, b := range x.NSet(a) {
			bID := int(b.ID())
			for s := 0; s < SlotsPerVertex; s++ {
				for q := 0; q < SlotsPerVertex; q++ {
					g.AddEdge(aID*SlotsPerVertex+s, bID*SlotsPerVertex+q)
				}
			}
		}
		return true
	})
	g.SortAdjacency()
	return g
}

// TestNewForHeightMatchesAddEdge checks that the once-per-pair
// construction yields exactly the G_r of the AddEdge construction, edge
// for edge and in the same adjacency order.
func TestNewForHeightMatchesAddEdge(t *testing.T) {
	for r := 0; r <= 7; r++ {
		got, want := NewForHeight(r).G, addEdgeConstruction(r)
		if got.N() != want.N() || got.M() != want.M() {
			t.Fatalf("r=%d: n=%d m=%d, AddEdge construction n=%d m=%d", r, got.N(), got.M(), want.N(), want.M())
		}
		for u := 0; u < want.N(); u++ {
			nb := got.Neighbors(u)
			if !slices.Equal(nb, want.Neighbors(u)) {
				t.Fatalf("r=%d: adjacency of slot %d differs", r, u)
			}
			// The predicted degree sized the list exactly.
			if cap(nb) != len(nb) {
				t.Fatalf("r=%d: slot %d has degree %d but was sized for %d", r, u, len(nb), cap(nb))
			}
		}
	}
}

func BenchmarkNewForHeight(b *testing.B) {
	for _, r := range []int{5, 7} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewForHeight(r)
			}
		})
	}
}
