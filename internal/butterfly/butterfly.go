// Package butterfly implements the constant-degree hypercube relatives the
// paper positions X-trees against (§1): butterfly networks and
// cube-connected cycles.  Bhatt, Chung, Hong, Leighton and Rosenberg [3]
// showed that complete binary trees embed into butterflies with constant
// dilation and expansion, but X-trees need dilation Ω(log log n) — the
// separation that motivates studying X-trees as hosts in their own right.
// This package reproduces the verifiable side of that context: the
// topologies, their structural constants, the dilation-1 containment of
// the complete binary tree, and the measured growth of the natural X-tree
// embedding's dilation.
package butterfly

import (
	"fmt"

	"xtreesim/internal/bitstr"
	"xtreesim/internal/graph"
)

// Butterfly is the (non-wrapped) butterfly network BF(k): vertices are
// pairs (level ℓ ∈ 0..k, row w ∈ {0,1}^k); vertex (ℓ,w) is adjacent to
// (ℓ+1, w) (straight edge) and to (ℓ+1, w XOR bit ℓ) (cross edge), where
// bit 0 is the most significant row bit.  Degree ≤ 4, (k+1)·2^k vertices.
type Butterfly struct {
	k int
}

// NewButterfly returns BF(k).
func NewButterfly(k int) *Butterfly {
	if k < 0 || k > 24 {
		panic(fmt.Sprintf("butterfly: order %d out of range", k))
	}
	return &Butterfly{k: k}
}

// NumVertices returns (k+1)·2^k.
func (b *Butterfly) NumVertices() int64 { return int64(b.k+1) << uint(b.k) }

// VertexID packs (level, row) densely: id = level·2^k + row.
func (b *Butterfly) VertexID(level int, row uint64) int64 {
	if level < 0 || level > b.k || row >= uint64(1)<<uint(b.k) {
		panic("butterfly: vertex out of range")
	}
	return int64(level)<<uint(b.k) | int64(row)
}

// crossBit returns the row-bit mask flipped between levels ℓ and ℓ+1
// (bit 0 = most significant).
func (b *Butterfly) crossBit(level int) uint64 {
	return uint64(1) << uint(b.k-1-level)
}

// AsGraph materializes BF(k).
func (b *Butterfly) AsGraph() *graph.Graph {
	g := graph.New(int(b.NumVertices()))
	rows := uint64(1) << uint(b.k)
	for level := 0; level < b.k; level++ {
		for row := uint64(0); row < rows; row++ {
			u := b.VertexID(level, row)
			g.AddEdge(int(u), int(b.VertexID(level+1, row)))
			g.AddEdge(int(u), int(b.VertexID(level+1, row^b.crossBit(level))))
		}
	}
	g.SortAdjacency()
	return g
}

// CompleteTreeEmbedding maps the complete binary tree of height k (nodes =
// binary strings of length ≤ k, in bitstr heap numbering) into BF(k) with
// dilation 1: tree node α at depth ℓ goes to (ℓ, α·0^{k−ℓ}).  Tree edges
// α → α·c connect (ℓ, α0…) to (ℓ+1, αc0…), which is a straight (c = 0) or
// cross (c = 1) butterfly edge.  The same map places the X-tree X(k),
// whose horizontal edges must detour: their dilation grows with k, as
// [3]'s Ω(log log n) lower bound requires.
func (b *Butterfly) CompleteTreeEmbedding() []int64 {
	n := bitstr.NumVertices(b.k)
	out := make([]int64, n)
	for id := int64(0); id < n; id++ {
		a := bitstr.FromID(id)
		row := a.Index << uint(b.k-a.Level)
		out[id] = b.VertexID(a.Level, row)
	}
	return out
}

// CCC is the cube-connected-cycles network CCC(k): vertices (w ∈ {0,1}^k,
// p ∈ 0..k−1); cycle edges (w,p)–(w,p±1 mod k) and cube edges
// (w,p)–(w XOR 2^p, p).  Degree exactly 3 for k ≥ 3, k·2^k vertices.
type CCC struct {
	k int
}

// NewCCC returns CCC(k), k ≥ 1.
func NewCCC(k int) *CCC {
	if k < 1 || k > 24 {
		panic(fmt.Sprintf("butterfly: CCC order %d out of range", k))
	}
	return &CCC{k: k}
}

// NumVertices returns k·2^k.
func (c *CCC) NumVertices() int64 { return int64(c.k) << uint(c.k) }

// VertexID packs (w, p) densely: id = w·k + p.
func (c *CCC) VertexID(w uint64, p int) int64 {
	if p < 0 || p >= c.k || w >= uint64(1)<<uint(c.k) {
		panic("butterfly: CCC vertex out of range")
	}
	return int64(w)*int64(c.k) + int64(p)
}

// AsGraph materializes CCC(k).
func (c *CCC) AsGraph() *graph.Graph {
	g := graph.New(int(c.NumVertices()))
	words := uint64(1) << uint(c.k)
	for w := uint64(0); w < words; w++ {
		for p := 0; p < c.k; p++ {
			u := c.VertexID(w, p)
			g.AddEdge(int(u), int(c.VertexID(w, (p+1)%c.k)))
			g.AddEdge(int(u), int(c.VertexID(w^(uint64(1)<<uint(p)), p)))
		}
	}
	g.SortAdjacency()
	return g
}
