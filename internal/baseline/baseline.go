// Package baseline implements the naive embeddings the Monien construction
// is compared against in the experiments (EXPERIMENTS.md, E9).  None of
// them achieves constant dilation AND constant load simultaneously:
//
//   - NaiveTree follows the guest's own child edges down the X-tree and
//     parks everything deeper than the host on the leaves: dilation ≤ 1 but
//     unbounded load on skewed trees;
//   - DFSPack / BFSPack fill the host 16-per-vertex in traversal order:
//     optimal load and expansion, but dilation grows with the tree size;
//   - RandomPack is the lower-bound anchor: dilation ≈ host diameter.
package baseline

import (
	"math/rand"

	"xtreesim/internal/bintree"
	"xtreesim/internal/bitstr"
	"xtreesim/internal/core"
	"xtreesim/internal/metrics"
	"xtreesim/internal/xtree"
)

// Result is a baseline embedding of a guest into an X-tree.
type Result struct {
	Name       string
	Guest      *bintree.Tree
	Host       *xtree.XTree
	Assignment []bitstr.Addr
}

// Embedding adapts the result for the metrics package.
func (r *Result) Embedding() *metrics.Embedding {
	return metrics.XTreeEmbedding(r.Guest, r.Host, r.Assignment)
}

// NaiveTree maps the guest root to ε and every child one level deeper
// (left→0, right→1) until the host bottoms out; deeper nodes stay on the
// leaf their parent reached.  Dilation ≤ 1, but the load is unbounded for
// deep guests.
func NaiveTree(t *bintree.Tree, height int) *Result {
	x := xtree.New(height)
	assign := make([]bitstr.Addr, t.N())
	for _, v := range t.PreOrder() {
		p := t.Parent(v)
		if p == bintree.None {
			assign[v] = bitstr.Root()
			continue
		}
		pa := assign[p]
		if pa.Level >= height {
			assign[v] = pa
			continue
		}
		side := byte(0)
		if t.Right(p) == v {
			side = 1
		}
		assign[v] = pa.Child(side)
	}
	return &Result{Name: "naive-tree", Guest: t, Host: x, Assignment: assign}
}

// packOrder places the guest nodes, in the given order, 16 per host vertex
// in heap (level) order.
func packOrder(name string, t *bintree.Tree, order []int32) *Result {
	height := core.OptimalHeight(t.N())
	x := xtree.New(height)
	assign := make([]bitstr.Addr, t.N())
	for i, v := range order {
		assign[v] = bitstr.FromID(int64(i / core.LoadTarget))
	}
	return &Result{Name: name, Guest: t, Host: x, Assignment: assign}
}

// DFSPack fills the optimal host with the guest's preorder sequence,
// 16 nodes per vertex.  Optimal load and expansion; the dilation is the
// host distance between packing positions of tree neighbors, which grows
// with n (second children land far from their parents).
func DFSPack(t *bintree.Tree) *Result {
	return packOrder("dfs-pack", t, t.PreOrder())
}

// BFSPack fills the optimal host with the guest's breadth-first sequence.
func BFSPack(t *bintree.Tree) *Result {
	order := make([]int32, 0, t.N())
	if t.N() > 0 {
		queue := []int32{t.Root()}
		var buf []int32
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			buf = t.Children(v, buf[:0])
			queue = append(queue, buf...)
		}
	}
	return packOrder("bfs-pack", t, order)
}

// RandomPack fills the optimal host with a uniformly random permutation of
// the guest, 16 nodes per vertex: the "no locality at all" anchor.
func RandomPack(t *bintree.Tree, rng *rand.Rand) *Result {
	order := make([]int32, t.N())
	for i, v := range rng.Perm(t.N()) {
		order[i] = int32(v)
	}
	return packOrder("random-pack", t, order)
}
