package netsim

import (
	"testing"

	"xtreesim/internal/bintree"
	"xtreesim/internal/core"
	"xtreesim/internal/xtree"
)

// xtreePlaceAndHost embeds a guest and returns the pieces a routed
// simulation needs.
func xtreePlaceAndHost(t *testing.T, tr *bintree.Tree) (*core.Result, []int32) {
	t.Helper()
	res, err := core.EmbedXTree(tr, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	place := make([]int32, tr.N())
	for v, a := range res.Assignment {
		place[v] = int32(a.ID())
	}
	return res, place
}

// xtreeNextHop routes on the X-tree's closed-form distance, with no tables.
func xtreeNextHop(x *xtree.XTree) func(cur, dst int32) int32 {
	return func(cur, dst int32) int32 { return int32(x.NextHopID(int64(cur), int64(dst))) }
}

// TestRoutedRunMatchesTableRunDeliveries checks that the topology-aware
// router produces a complete, correct run: same deliveries and a makespan
// within the same ballpark (paths are equal length, only tie-breaking can
// shift queuing by a little).
func TestRoutedRunMatchesTableRunDeliveries(t *testing.T) {
	tr := bintree.CompleteN(int(core.Capacity(4)))
	res, place := xtreePlaceAndHost(t, tr)
	hostG := res.Host.AsGraph()
	wlA := NewDivideConquer(tr, 2)
	tab, err := Run(Config{Host: hostG, Place: place}, wlA)
	if err != nil {
		t.Fatal(err)
	}
	wlB := NewDivideConquer(tr, 2)
	routed, err := Run(Config{
		Host:    hostG,
		Place:   place,
		NextHop: xtreeNextHop(res.Host),
	}, wlB)
	if err != nil {
		t.Fatal(err)
	}
	if routed.Delivered != tab.Delivered {
		t.Errorf("delivered %d vs %d", routed.Delivered, tab.Delivered)
	}
	if routed.HopsTotal != tab.HopsTotal {
		t.Errorf("hops %d vs %d (both route shortest paths)", routed.HopsTotal, tab.HopsTotal)
	}
	ratio := float64(routed.Cycles) / float64(tab.Cycles)
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("makespan diverged: %d vs %d", routed.Cycles, tab.Cycles)
	}
}

// TestRoutedRunBeyondTableCap runs on X(12) — 8191 vertices, beyond the
// table limit — which only the router makes possible.
func TestRoutedRunBeyondTableCap(t *testing.T) {
	if testing.Short() {
		t.Skip("large host")
	}
	// A modest guest on a large host: force height 12.
	tr := bintree.CompleteN(4095)
	res, err := core.EmbedXTree(tr, core.Options{Height: 12})
	if err != nil {
		t.Fatal(err)
	}
	hostG := res.Host.AsGraph()
	if hostG.N() <= MaxHostVertices {
		t.Fatalf("host unexpectedly small: %d", hostG.N())
	}
	place := make([]int32, tr.N())
	for v, a := range res.Assignment {
		place[v] = int32(a.ID())
	}
	// Without a router it must refuse.
	if _, err := Run(Config{Host: hostG, Place: place}, NewBroadcast(tr)); err == nil {
		t.Fatal("table-routed run beyond the cap accepted")
	}
	resSim, err := Run(Config{
		Host:    hostG,
		Place:   place,
		NextHop: xtreeNextHop(res.Host),
	}, NewBroadcast(tr))
	if err != nil {
		t.Fatal(err)
	}
	if resSim.Delivered != tr.N()-1 {
		t.Errorf("delivered %d", resSim.Delivered)
	}
}
