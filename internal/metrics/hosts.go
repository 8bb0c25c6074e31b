package metrics

import (
	"xtreesim/internal/bintree"
	"xtreesim/internal/bitstr"
	"xtreesim/internal/hypercube"
	"xtreesim/internal/xtree"
)

// XTreeHost adapts an X-tree to the Host interface via bitstr heap ids.
type XTreeHost struct{ X *xtree.XTree }

// XTreeEmbedding adapts an assignment of guest nodes to X-tree addresses
// for measurement: every X-tree result (Theorems 1 and 2, the
// baselines) goes through it.
func XTreeEmbedding(guest *bintree.Tree, x *xtree.XTree, assign []bitstr.Addr) *Embedding {
	m := make([]int64, len(assign))
	for i, a := range assign {
		m[i] = a.ID()
	}
	return &Embedding{Guest: guest, Host: XTreeHost{X: x}, Map: m}
}

// NumVertices implements Host.
func (h XTreeHost) NumVertices() int64 { return h.X.NumVertices() }

// Distance implements Host.
func (h XTreeHost) Distance(u, v int64) int {
	return h.X.Distance(bitstr.FromID(u), bitstr.FromID(v))
}

// HypercubeHost adapts a hypercube to the Host interface (vertex ids are
// the labels).
type HypercubeHost struct{ H *hypercube.Hypercube }

// NumVertices implements Host.
func (h HypercubeHost) NumVertices() int64 { return h.H.NumVertices() }

// Distance implements Host.
func (h HypercubeHost) Distance(u, v int64) int {
	return h.H.Distance(uint64(u), uint64(v))
}
