package xtreesim_test

import (
	"testing"

	"xtreesim"
)

// TestPublicAPIRoundTrip exercises the façade end to end the way the
// README shows it.
func TestPublicAPIRoundTrip(t *testing.T) {
	tree, err := xtreesim.GenerateTree(xtreesim.FamilyRandom, 1008, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := xtreesim.Embed(tree)
	if err != nil {
		t.Fatal(err)
	}
	if err := xtreesim.Verify(res); err != nil {
		t.Fatal(err)
	}
	if res.Host.Height() != 5 {
		t.Errorf("host height %d, want 5 (optimal)", res.Host.Height())
	}

	inj, err := xtreesim.EmbedInjective(res)
	if err != nil {
		t.Fatal(err)
	}
	if !inj.Embedding().IsInjective() {
		t.Error("Theorem 2 result not injective")
	}
	if d := inj.Embedding().Dilation(); d > 11 {
		t.Errorf("Theorem 2 dilation %d", d)
	}

	hc := xtreesim.EmbedHypercube(res)
	if d := hc.Embedding().Dilation(); d > 4 {
		t.Errorf("Theorem 3 dilation %d", d)
	}
	ihc := xtreesim.InjectiveHypercubeOf(inj)
	if !ihc.Embedding().IsInjective() {
		t.Error("injective hypercube corollary failed")
	}
}

func TestPublicAPIUniversal(t *testing.T) {
	u, err := xtreesim.NewUniversalGraph(112)
	if err != nil {
		t.Fatal(err)
	}
	if u.MaxDegree() > xtreesim.UniversalDegreeBound {
		t.Errorf("degree %d", u.MaxDegree())
	}
	tree, err := xtreesim.GenerateTree(xtreesim.FamilyCaterpillar, 112, 7)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := u.Embed(tree)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.IsSpanning(tree, assign); err != nil {
		t.Error(err)
	}
}

func TestPublicAPISimulation(t *testing.T) {
	tree, err := xtreesim.GenerateTree(xtreesim.FamilyComplete, 240, 1)
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := xtreesim.SimulateOnTree(tree, xtreesim.NewDivideConquer(tree, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := xtreesim.Embed(tree)
	if err != nil {
		t.Fatal(err)
	}
	host, err := xtreesim.SimulateOnXTree(res, xtreesim.NewDivideConquer(tree, 1))
	if err != nil {
		t.Fatal(err)
	}
	if host.Cycles < ideal.Cycles {
		t.Errorf("host faster than ideal: %d < %d", host.Cycles, ideal.Cycles)
	}
	if host.Cycles > 10*ideal.Cycles {
		t.Errorf("slowdown not constant-ish: %d vs %d", host.Cycles, ideal.Cycles)
	}
	bc, err := xtreesim.SimulateOnTree(tree, xtreesim.NewBroadcast(tree))
	if err != nil {
		t.Fatal(err)
	}
	if bc.Cycles == 0 {
		t.Error("broadcast did nothing")
	}
}

// TestPublicAPIPartitions pins the façade's distsim routing: every
// entry point with WithPartitions must reproduce its single-process
// Result exactly, fault layer included.
func TestPublicAPIPartitions(t *testing.T) {
	tree, err := xtreesim.GenerateTree(xtreesim.FamilyRandom, 240, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := xtreesim.Embed(tree)
	if err != nil {
		t.Fatal(err)
	}
	plan := &xtreesim.FaultPlan{Seed: 3, DropProb: 0.03}
	ref, err := xtreesim.SimulateOnXTree(res, xtreesim.NewDivideConquer(tree, 2), xtreesim.WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{2, 4} {
		got, err := xtreesim.SimulateOnXTree(res, xtreesim.NewDivideConquer(tree, 2),
			xtreesim.WithFaults(plan), xtreesim.WithPartitions(parts))
		if err != nil {
			t.Fatalf("partitions=%d: %v", parts, err)
		}
		if got != ref {
			t.Errorf("partitions=%d diverges:\n dist: %+v\n ref:  %+v", parts, got, ref)
		}
	}
	treeRef, err := xtreesim.SimulateOnTree(tree, xtreesim.NewScan(tree))
	if err != nil {
		t.Fatal(err)
	}
	treeDist, err := xtreesim.SimulateOnTree(tree, xtreesim.NewScan(tree), xtreesim.WithPartitions(3))
	if err != nil {
		t.Fatal(err)
	}
	if treeDist != treeRef {
		t.Errorf("partitioned tree machine diverges: %+v vs %+v", treeDist, treeRef)
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	tree, err := xtreesim.GenerateTree(xtreesim.FamilyRandom, int(xtreesim.Capacity(5)), 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := xtreesim.Embed(tree)
	if err != nil {
		t.Fatal(err)
	}
	base := func(m xtreesim.BaselineMethod) *xtreesim.BaselineResult {
		b, err := xtreesim.Baseline(tree, m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	dfs := base(xtreesim.MethodDFSPack).Embedding().Dilation()
	if res.Dilation() > dfs {
		t.Errorf("monien dilation %d worse than dfs-pack %d", res.Dilation(), dfs)
	}
	naive := base(xtreesim.MethodNaive) // optimal height by default
	if naive.Embedding().Dilation() > 1 {
		t.Error("naive-tree dilation should be ≤ 1")
	}
	rnd := base(xtreesim.MethodRandom) // seed 1 by default
	if rnd.Embedding().MaxLoad() != xtreesim.LoadTarget {
		t.Error("random pack load wrong")
	}
}

func TestOptimalHeightAndCapacity(t *testing.T) {
	if xtreesim.OptimalHeight(1008) != 5 || xtreesim.Capacity(5) != 1008 {
		t.Error("capacity arithmetic wrong")
	}
	if xtreesim.NewXTree(3).NumVertices() != 15 {
		t.Error("X(3) size wrong")
	}
}
