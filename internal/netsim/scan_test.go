package netsim

import (
	"math/rand"
	"testing"

	"xtreesim/internal/bintree"
	"xtreesim/internal/core"
)

func TestScanOnIdealMachine(t *testing.T) {
	for _, mk := range []func() *bintree.Tree{
		func() *bintree.Tree { return bintree.Complete(4) },
		func() *bintree.Tree { return bintree.Path(20) },
		func() *bintree.Tree { return bintree.Caterpillar(31) },
	} {
		tr := mk()
		wl := NewScan(tr)
		res := runOnTree(t, tr, wl)
		if !wl.Done() {
			t.Fatalf("scan did not complete on %v", tr)
		}
		// Up-sweep + down-sweep each cross every edge once.
		if want := 2 * (tr.N() - 1); res.Delivered != want {
			t.Errorf("delivered %d, want %d", res.Delivered, want)
		}
		// The workload self-verifies; double-check a few prefixes here.
		if tr.N() >= 2 && wl.Prefix(tr.Root()) < 1 {
			t.Error("root prefix out of range")
		}
	}
}

func TestScanSingleNode(t *testing.T) {
	tr := bintree.Path(1)
	wl := NewScan(tr)
	res := runOnTree(t, tr, wl)
	if res.Cycles != 0 || !wl.Done() {
		t.Errorf("single-node scan: %+v done=%v", res, wl.Done())
	}
	if wl.Prefix(0) != 1 {
		t.Errorf("prefix = %d", wl.Prefix(0))
	}
}

func TestScanPrefixValuesOnPath(t *testing.T) {
	// On the all-left path, in-order visits the deepest node first.
	tr := bintree.Path(6)
	wl := NewScan(tr)
	runOnTree(t, tr, wl)
	for v := int32(0); v < 6; v++ {
		if want := int64(6 - v); wl.Prefix(v) != want {
			t.Errorf("prefix[%d] = %d, want %d", v, wl.Prefix(v), want)
		}
	}
}

// TestScanOnXTreeMachine runs the full parallel-prefix computation through
// the Monien embedding and verifies the RESULT (not just the traffic):
// the simulated machine computes the right answer with small slowdown.
func TestScanOnXTreeMachine(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for _, f := range []bintree.Family{bintree.FamilyComplete, bintree.FamilyRandom, bintree.FamilyBST} {
		tr, err := bintree.Generate(f, int(core.Capacity(4)), rng)
		if err != nil {
			t.Fatal(err)
		}
		ideal := runOnTree(t, tr, NewScan(tr))
		wl := NewScan(tr)
		res, err := Run(embeddedXTreeConfig(t, tr), wl)
		if err != nil {
			t.Fatal(err)
		}
		if !wl.Done() {
			t.Fatalf("%s: scan incorrect on the X-tree machine", f)
		}
		if res.Cycles > 8*ideal.Cycles+16 {
			t.Errorf("%s: scan slowdown too large: %d vs %d", f, res.Cycles, ideal.Cycles)
		}
	}
}
