package universal

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"xtreesim/internal/bintree"
	"xtreesim/internal/bitstr"
	"xtreesim/internal/core"
)

// TestEdgeRuleMatchesGraph checks Theorem 4's rule against the built
// graph: on every ordered pair of distinct slot-vertices of G over X(r),
// r ≤ 5, slotsAdjacent must agree with HasEdge.  Both orders matter:
// checkSubgraph passes each guest edge child first, and the child's
// vertex may sit above its parent's.
func TestEdgeRuleMatchesGraph(t *testing.T) {
	for r := 0; r <= 5; r++ {
		u := NewForHeight(r)
		for s := 0; s < u.N(); s++ {
			for q := 0; q < u.N(); q++ {
				if s == q {
					continue
				}
				if got, want := slotsAdjacent(u.X, s, q), u.G.HasEdge(s, q); got != want {
					t.Fatalf("r=%d: slots %d and %d: rule says %v, G says %v", r, s, q, got, want)
				}
			}
		}
	}
}

// TestPlaceMatchesEmbedAny holds Place to the graph-backed path it
// replaces on the server: the same slots, size and error text as
// NewForAtLeast(n).EmbedAny followed by IsSubgraph.
func TestPlaceMatchesEmbedAny(t *testing.T) {
	graphs := map[int]*Graph{}
	for _, f := range bintree.Families {
		for _, n := range []int{1, 17, 300, 1008, 1009, 2032, 4080} {
			for _, seed := range []int64{1, 2} {
				tr, err := bintree.Generate(f, n, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				r := core.OptimalHeight(n)
				if graphs[r] == nil {
					graphs[r] = NewForAtLeast(n)
				}
				u := graphs[r]
				want, wantErr := u.EmbedAny(tr)
				if wantErr == nil {
					wantErr = u.IsSubgraph(tr, want)
				}
				got, size, err := Place(context.Background(), tr)
				name := fmt.Sprintf("%s n=%d seed=%d", f, n, seed)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: Place error %v, EmbedAny+IsSubgraph %v", name, err, wantErr)
				}
				if size != u.N() {
					t.Errorf("%s: Place size %d, G has %d slots", name, size, u.N())
				}
				if wantErr == nil && !slices.Equal(got, want) {
					t.Errorf("%s: Place slots differ from EmbedAny's", name)
				}
			}
		}
	}
}

// TestPlaceRejectsBrokenPlacements mutates a valid placement the two ways
// a subgraph check exists to catch, and requires both the X-tree rule and
// the built graph to reject each.
func TestPlaceRejectsBrokenPlacements(t *testing.T) {
	tr, err := bintree.Generate(bintree.FamilyRandom, 300, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	slots, size, err := Place(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	r := core.OptimalHeight(tr.N())
	u := NewForHeight(r)
	if err := checkByRule(r, tr, slots); err != nil {
		t.Fatalf("valid placement rejected by the rule: %v", err)
	}
	used := make([]bool, size)
	for _, s := range slots {
		used[s] = true
	}

	// Move node v onto a free slot of a vertex that is neither in the
	// N-set of its parent's vertex nor has that vertex in its own.
	v := int32(1)
	for tr.Parent(v) == bintree.None {
		v++
	}
	a := bitstr.FromID(int64(slots[tr.Parent(v)] / SlotsPerVertex))
	far := -1
	for s := 0; s < size && far < 0; s++ {
		b := bitstr.FromID(int64(s / SlotsPerVertex))
		if !used[s] && b != a && !u.X.InN(a, b) && !u.X.InN(b, a) {
			far = s
		}
	}
	if far < 0 {
		t.Fatal("no free slot outside the parent's N-relation")
	}
	moved := slices.Clone(slots)
	moved[v] = far

	shared := slices.Clone(slots)
	shared[v] = shared[tr.Parent(v)]

	for _, c := range []struct {
		name  string
		slots []int
	}{{"node outside its parent's N-relation", moved}, {"two nodes on one slot", shared}} {
		ruleErr, graphErr := checkByRule(r, tr, c.slots), u.IsSubgraph(tr, c.slots)
		if ruleErr == nil || graphErr == nil {
			t.Errorf("%s: X-tree rule says %v, IsSubgraph says %v; both must reject", c.name, ruleErr, graphErr)
		} else if ruleErr.Error() != graphErr.Error() {
			t.Errorf("%s: X-tree rule says %q, IsSubgraph says %q", c.name, ruleErr, graphErr)
		}
	}
}

// TestPlaceAllocBytes gates the memory of one Place call at n = 4080,
// where G alone would take 4.3 MB of adjacency lists.  A random guest and
// a path guest each stay under 1 MB.
func TestPlaceAllocBytes(t *testing.T) {
	for _, c := range []struct {
		family bintree.Family
		budget uint64
	}{{bintree.FamilyRandom, 1 << 20}, {bintree.FamilyPath, 1 << 20}} {
		tr, err := bintree.Generate(c.family, 4080, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		place := func() {
			if _, _, err := Place(context.Background(), tr); err != nil {
				t.Fatal(err)
			}
		}
		place()
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			place()
		}
		runtime.ReadMemStats(&after)
		perCall := (after.TotalAlloc - before.TotalAlloc) / runs
		if perCall > c.budget {
			t.Errorf("Place of a %s guest at n=4080 allocates %d bytes per call, budget %d", c.family, perCall, c.budget)
		}
		t.Logf("Place of a %s guest at n=4080: %d bytes per call", c.family, perCall)
	}
}
