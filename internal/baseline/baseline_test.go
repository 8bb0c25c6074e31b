package baseline

import (
	"math/rand"
	"testing"

	"xtreesim/internal/bintree"
	"xtreesim/internal/core"
)

func TestNaiveTree(t *testing.T) {
	tr := bintree.Complete(3)
	res := NaiveTree(tr, 3)
	emb := res.Embedding()
	if d := emb.Dilation(); d != 1 {
		t.Errorf("complete naive dilation = %d", d)
	}
	if l := emb.MaxLoad(); l != 1 {
		t.Errorf("complete naive load = %d", l)
	}
	// A path explodes the leaf load.
	p := bintree.Path(100)
	res = NaiveTree(p, 3)
	emb = res.Embedding()
	if d := emb.Dilation(); d > 1 {
		t.Errorf("path naive dilation = %d", d)
	}
	if l := emb.MaxLoad(); l != 100-3 {
		t.Errorf("path naive leaf load = %d, want 97", l)
	}
}

func TestPackingsLoadAndExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	tr := bintree.RandomAttachment(int(core.Capacity(4)), rng)
	for _, res := range []*Result{DFSPack(tr), BFSPack(tr), RandomPack(tr, rng)} {
		emb := res.Embedding()
		if err := emb.Validate(); err != nil {
			t.Fatalf("%s: %v", res.Name, err)
		}
		if l := emb.MaxLoad(); l != core.LoadTarget {
			t.Errorf("%s: load %d, want 16", res.Name, l)
		}
		// Optimal host at load 16: one vertex per 16 guests.
		if x := emb.Expansion(); x != 1.0/16 {
			t.Errorf("%s: expansion %v, want 1/16", res.Name, x)
		}
	}
}

// TestPackingDilationGrows pins the baseline contrast: the dfs-pack
// dilation must grow with the instance while Monien's stays ≤ 3.
func TestPackingDilationGrows(t *testing.T) {
	small := DFSPack(bintree.Path(int(core.Capacity(3)))).Embedding().Dilation()
	large := DFSPack(bintree.CompleteN(int(core.Capacity(7)))).Embedding().Dilation()
	if large <= 3 {
		t.Errorf("dfs-pack dilation %d unexpectedly small on complete tree", large)
	}
	if large < small {
		t.Errorf("dfs-pack dilation shrank: %d -> %d", small, large)
	}
}

func TestRandomPackDilationLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	tr := bintree.RandomAttachment(int(core.Capacity(6)), rng)
	d := RandomPack(tr, rng).Embedding().Dilation()
	if d < 4 {
		t.Errorf("random-pack dilation %d suspiciously small", d)
	}
}
