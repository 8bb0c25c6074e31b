package core

import (
	"context"
	"math/rand"
	"testing"

	"xtreesim/internal/bintree"
)

func TestOptimalHeight(t *testing.T) {
	cases := map[int]int{1: 0, 16: 0, 17: 1, 48: 1, 49: 2, 112: 2, 113: 3, 240: 3}
	for n, want := range cases {
		if got := OptimalHeight(n); got != want {
			t.Errorf("OptimalHeight(%d) = %d, want %d", n, got, want)
		}
	}
	if Capacity(3) != 240 {
		t.Errorf("Capacity(3) = %d", Capacity(3))
	}
}

func TestEmbedTiny(t *testing.T) {
	// n = 16 exactly fills X(0).
	tr := bintree.CompleteN(16)
	res, err := EmbedXTree(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Host.Height() != 0 {
		t.Fatalf("height = %d", res.Host.Height())
	}
	if res.MaxLoad() != 16 {
		t.Fatalf("load = %d", res.MaxLoad())
	}
	if d := res.Dilation(); d != 0 {
		t.Fatalf("dilation = %d", d)
	}
}

func TestEmbedExactSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for r := 1; r <= 5; r++ {
		n := int(Capacity(r))
		for _, f := range []bintree.Family{bintree.FamilyRandom, bintree.FamilyComplete, bintree.FamilyPath, bintree.FamilyCaterpillar} {
			tr, err := bintree.Generate(f, n, rng)
			if err != nil {
				t.Fatal(err)
			}
			res, err := EmbedXTree(tr, DefaultOptions())
			if err != nil {
				t.Fatalf("%s n=%d: %v", f, n, err)
			}
			emb := res.Embedding()
			if err := emb.Validate(); err != nil {
				t.Fatalf("%s n=%d: %v", f, n, err)
			}
			rep := emb.Summarize()
			t.Logf("%s r=%d n=%d: dilation=%d load=%d overflows=%d cond3=%d stretched=%d deficits=%d finalFB=%d imb=%v",
				f, r, n, rep.Dilation, rep.MaxLoad, res.Stats.Overflows, res.Stats.Cond3Violations,
				res.Stats.StretchedComps, res.Stats.FillDeficits, res.Stats.FinalFallbacks, res.Stats.MaxImbalance)
			if rep.Dilation > 3 {
				t.Errorf("%s r=%d: dilation %d > 3", f, r, rep.Dilation)
			}
			if rep.MaxLoad > 16 {
				t.Errorf("%s r=%d: load %d > 16", f, r, rep.MaxLoad)
			}
		}
	}
}

// TestHypercubeDilationMatchesEmbedding holds the allocation-free
// hypercube pass to the composed χ∘δ embedding of EmbedHypercube on
// every family, and checks that its loads are the X-tree's, because χ is
// one-to-one.
func TestHypercubeDilationMatchesEmbedding(t *testing.T) {
	for _, f := range bintree.Families {
		for _, n := range []int{1, 2, 17, 300, 1009} {
			tr, err := bintree.Generate(f, n, randSource(int64(n)))
			if err != nil {
				t.Fatal(err)
			}
			res, err := EmbedXTree(tr, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			emb := res.Embedding()
			hemb := EmbedHypercube(res).Embedding()
			hdil, havg := hemb.DilationStats()
			if gd, ga := HypercubeDilationContext(context.Background(), res); gd != hdil || ga != havg {
				t.Errorf("%s n=%d: hypercube pass %d %v, χ∘δ embedding %d %v", f, n, gd, ga, hdil, havg)
			}
			if hemb.MaxLoad() != res.MaxLoad() || len(hemb.Loads()) != len(emb.Loads()) {
				t.Errorf("%s n=%d: χ∘δ uses %d vertices at load %d, δ %d at %d",
					f, n, len(hemb.Loads()), hemb.MaxLoad(), len(emb.Loads()), res.MaxLoad())
			}
		}
	}
}
