package xtreesim_test

// Coverage for the PR-1 surface: the functional-options façade (Embed /
// Baseline), the cancellable simulator entry point, and the batch
// engine exposed through xtreesim.NewEngine / xtreesim.EmbedBatch.

import (
	"context"
	"math/rand"
	"testing"

	"xtreesim"

	"xtreesim/internal/baseline"
	"xtreesim/internal/bintree"
	"xtreesim/internal/netsim"
)

func genTree(t testing.TB, f xtreesim.Family, n int, seed int64) *xtreesim.Tree {
	t.Helper()
	tr, err := xtreesim.GenerateTree(f, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// relabelIso returns an isomorphic copy of tr: permuted node numbers and
// mirrored child sides.
func relabelIso(t testing.TB, tr *xtreesim.Tree, seed int64) *xtreesim.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := tr.N()
	perm := make([]int32, n)
	for i, v := range rng.Perm(n) {
		perm[i] = int32(v)
	}
	parent := make([]int32, n)
	side := make([]byte, n)
	for v := int32(0); v < int32(n); v++ {
		p := tr.Parent(v)
		if p == bintree.None {
			parent[perm[v]] = bintree.None
			continue
		}
		parent[perm[v]] = perm[p]
		if tr.Right(p) != v {
			side[perm[v]] = 1
		}
	}
	out, err := bintree.NewFromParents(parent, side)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBaselineMethods pins Baseline's method and option wiring against
// the internal/baseline constructors it dispatches to.
func TestBaselineMethods(t *testing.T) {
	tree := genTree(t, xtreesim.FamilyBST, 496, 6)

	for _, tc := range []struct {
		m    xtreesim.BaselineMethod
		opts []xtreesim.BaselineOption
		want *xtreesim.BaselineResult
	}{
		{xtreesim.MethodDFSPack, nil, baseline.DFSPack(tree)},
		{xtreesim.MethodBFSPack, nil, baseline.BFSPack(tree)},
		{xtreesim.MethodNaive, []xtreesim.BaselineOption{xtreesim.WithBaselineHeight(6)},
			baseline.NaiveTree(tree, 6)},
		{xtreesim.MethodRandom, []xtreesim.BaselineOption{xtreesim.WithBaselineSeed(9)},
			baseline.RandomPack(tree, rand.New(rand.NewSource(9)))},
	} {
		got, err := xtreesim.Baseline(tree, tc.m, tc.opts...)
		if err != nil {
			t.Fatalf("%v: %v", tc.m, err)
		}
		if got.Name != tc.m.String() {
			t.Errorf("%v: result named %q", tc.m, got.Name)
		}
		if len(got.Assignment) != len(tc.want.Assignment) {
			t.Fatalf("%v: assignment sizes differ", tc.m)
		}
		for v := range got.Assignment {
			if got.Assignment[v] != tc.want.Assignment[v] {
				t.Fatalf("%v: node %d differs from internal/baseline", tc.m, v)
			}
		}
	}

	// MethodNaive without a height picks the optimal one.
	naive, err := xtreesim.Baseline(tree, xtreesim.MethodNaive)
	if err != nil {
		t.Fatal(err)
	}
	if naive.Host.Height() != xtreesim.OptimalHeight(tree.N()) {
		t.Errorf("default naive host = X(%d)", naive.Host.Height())
	}

	if _, err := xtreesim.Baseline(tree, xtreesim.BaselineMethod(99)); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestSimulateContextCancel(t *testing.T) {
	tree := genTree(t, xtreesim.FamilyComplete, 1008, 0)
	res, err := xtreesim.Embed(tree)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = xtreesim.SimulateContext(ctx, netsim.OnXTree(res.Host, res.Assignment),
		xtreesim.NewDivideConquer(tree, 1))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The uncancelled path still works and matches Simulate.
	sim, err := xtreesim.SimulateOnXTree(res, xtreesim.NewDivideConquer(tree, 1))
	if err != nil {
		t.Fatal(err)
	}
	if sim.Delivered == 0 {
		t.Error("nothing delivered")
	}
}

func TestFacadeEngine(t *testing.T) {
	eng := xtreesim.NewEngine(xtreesim.EngineConfig{Workers: 2})
	defer eng.Close()
	strict := xtreesim.EngineProfile{Strict: true}

	trees := []*xtreesim.Tree{
		genTree(t, xtreesim.FamilyRandom, 496, 1),
		genTree(t, xtreesim.FamilyCaterpillar, 496, 2),
	}
	items := eng.EmbedBatchProfile(context.Background(), strict, trees)
	for i, it := range items {
		if it.Err != nil {
			t.Fatalf("item %d: %v", i, it.Err)
		}
		if err := xtreesim.CheckInvariants(it.Result); err != nil {
			t.Errorf("item %d: %v", i, err)
		}
	}
	// An isomorphic second pass hits the cache and the remapped result
	// still satisfies every invariant.
	iso := []*xtreesim.Tree{relabelIso(t, trees[0], 5), relabelIso(t, trees[1], 6)}
	for i, it := range eng.EmbedBatchProfile(context.Background(), strict, iso) {
		if it.Err != nil {
			t.Fatalf("iso %d: %v", i, it.Err)
		}
		if !it.CacheHit {
			t.Errorf("iso %d missed the cache", i)
		}
		if err := xtreesim.CheckInvariants(it.Result); err != nil {
			t.Errorf("iso %d: %v", i, err)
		}
	}
	s := eng.Stats()
	if s.Hits != 2 || s.Misses != 2 {
		t.Errorf("stats %+v", s)
	}
	if s.HitRate() != 0.5 {
		t.Errorf("hit rate %v", s.HitRate())
	}
}

func TestPackageLevelEmbedBatch(t *testing.T) {
	trees := []*xtreesim.Tree{
		genTree(t, xtreesim.FamilyZigzag, 240, 1),
		genTree(t, xtreesim.FamilyBroom, 240, 2),
	}
	before := xtreesim.DefaultEngine().Stats()
	items := xtreesim.EmbedBatch(context.Background(), trees)
	for i, it := range items {
		if it.Err != nil {
			t.Fatalf("item %d: %v", i, it.Err)
		}
		if err := xtreesim.Verify(it.Result); err != nil {
			t.Errorf("item %d: %v", i, err)
		}
	}
	after := xtreesim.DefaultEngine().Stats()
	if after.Completed-before.Completed != 2 {
		t.Errorf("default engine completed %d jobs, want 2", after.Completed-before.Completed)
	}
	if xtreesim.CanonicalHash(trees[0]) == xtreesim.CanonicalHash(trees[1]) {
		t.Error("distinct families share a canonical hash")
	}
}
