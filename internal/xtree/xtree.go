// Package xtree implements the X-tree interconnection network.
//
// Following Monien (SPAA '91, §2): the X-tree of height r, X(r), has one
// vertex for every binary string of length at most r.  A string z of length
// i < r is adjacent to its extensions z0 and z1, and every string z with
// binary(z) < 2^|z| − 1 is adjacent to successor(z).  In other words, X(r)
// is the complete binary tree of height r plus "horizontal" edges joining
// consecutive vertices on each level (Figure 1 of the paper).
//
// The package exposes the adjacency implicitly (so X(40) is as cheap as
// X(4)), exact distance queries in closed form, the neighborhood
// sets N(a) of Figure 2 that certify dilation 3, and materialization as a
// generic graph for small heights.
package xtree

import (
	"fmt"

	"xtreesim/internal/bitstr"
	"xtreesim/internal/graph"
)

// XTree is the X-tree of height Height.  The zero value is X(0), a single
// vertex.
type XTree struct {
	height int
}

// New returns the X-tree of the given height.
func New(height int) *XTree {
	if height < 0 || height > bitstr.MaxLevel {
		panic(fmt.Sprintf("xtree: height %d out of range", height))
	}
	return &XTree{height: height}
}

// Height returns r for X(r).
func (x *XTree) Height() int { return x.height }

// NumVertices returns 2^(r+1) − 1.
func (x *XTree) NumVertices() int64 { return bitstr.NumVertices(x.height) }

// Contains reports whether a names a vertex of this X-tree.
func (x *XTree) Contains(a bitstr.Addr) bool {
	return a.Valid() && a.Level <= x.height
}

// Neighbors appends the vertices adjacent to a into buf and returns it.
// The degree is at most 5: parent, two children, predecessor, successor.
func (x *XTree) Neighbors(a bitstr.Addr, buf []bitstr.Addr) []bitstr.Addr {
	if !x.Contains(a) {
		panic(fmt.Sprintf("xtree: %v not in X(%d)", a, x.height))
	}
	if !a.IsRoot() {
		buf = append(buf, a.Parent())
		if p, ok := a.Predecessor(); ok {
			buf = append(buf, p)
		}
		if s, ok := a.Successor(); ok {
			buf = append(buf, s)
		}
	}
	if a.Level < x.height {
		buf = append(buf, a.Child(0), a.Child(1))
	}
	return buf
}

// Distance returns the exact shortest-path distance between a and b.  It
// panics if either vertex lies outside the tree.
//
// A shortest X-tree path climbs from both endpoints to some level k, walks
// horizontally there, and never dips below that level on the way: a valley
// of depth m costs 2m and its lower-level gap is at least the upper one,
// and a sideways step taken below the peak can be lifted to the peak at no
// extra cost.  Hence, with a_k = a.Index >> (|a|−k) the ancestor of a on
// level k,
//
//	d(a,b) = min over k ≤ min(|a|,|b|) of (|a|−k) + (|b|−k) + |a_k − b_k|.
//
// The scan starts at the shallower endpoint's level and climbs until the
// up-moves alone reach the best total, so it takes O(log of the index gap)
// steps and allocates nothing.
func (x *XTree) Distance(a, b bitstr.Addr) int {
	if !x.Contains(a) || !x.Contains(b) {
		panic(fmt.Sprintf("xtree: distance %v–%v outside X(%d)", a, b, x.height))
	}
	k := min(a.Level, b.Level)
	ai, bi := a.Index>>uint(a.Level-k), b.Index>>uint(b.Level-k)
	best := a.Level + b.Level // k = 0: up to the root, where the gap is 0
	for up := best - 2*k; up < best; up += 2 {
		gap := ai - bi
		if bi > ai {
			gap = bi - ai
		}
		if gap < uint64(best-up) {
			best = up + int(gap)
		}
		ai, bi = ai>>1, bi>>1
	}
	return best
}

// AsGraph materializes the X-tree as a generic graph whose vertex ids are
// the bitstr heap ids.  Intended for small heights (metrics, figures,
// simulator); it allocates Θ(2^r) memory.
func (x *XTree) AsGraph() *graph.Graph {
	n := x.NumVertices()
	if n > 1<<26 {
		panic("xtree: AsGraph on too large a tree")
	}
	g := graph.New(int(n))
	for id := int64(0); id < n; id++ {
		a := bitstr.FromID(id)
		if a.Level < x.height {
			g.AddEdge(int(id), int(a.Child(0).ID()))
			g.AddEdge(int(id), int(a.Child(1).ID()))
		}
		if s, ok := a.Successor(); ok {
			g.AddEdge(int(id), int(s.ID()))
		}
	}
	g.SortAdjacency()
	return g
}

// Vertices calls f for every vertex in heap order (level by level).  If f
// returns false the iteration stops.
func (x *XTree) Vertices(f func(bitstr.Addr) bool) {
	n := x.NumVertices()
	for id := int64(0); id < n; id++ {
		if !f(bitstr.FromID(id)) {
			return
		}
	}
}
