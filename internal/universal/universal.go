// Package universal implements Theorem 4 of the paper: for every
// n = 2^t − 16 there is a graph G_n of degree at most 415 such that every
// binary tree with n nodes is a spanning tree of G_n.
//
// The construction follows §3 directly: take the X-tree X(r) with
// 16·(2^(r+1)−1) = 2^t − 16 slots (r = t−5), give every X-tree vertex 16
// slot-vertices, and connect two slot-vertices whenever their X-tree
// vertices are equal or related by the N-neighborhood of Figure 2 (in
// either direction).  The degree is then at most 25·16 + 15 = 415: each
// vertex has at most 20 N-successors and 5 extra N-predecessors, each
// contributing 16 slots, plus its own 15 sibling slots.
//
// A binary tree with n nodes is embedded as a spanning tree by running the
// Theorem 1 embedding (which fills every vertex with exactly 16 nodes and
// satisfies condition (3′): adjacent guests map within the N-relation) and
// then handing the 16 nodes of every vertex the 16 slots injectively.
//
// The edges of G_n are a rule on the X-tree, so a placement can be checked
// without G_n: Place embeds any guest with the same code path as
// Graph.EmbedAny and checks every guest edge by that rule.  The graph
// itself serves Theorem 4's degree audit and its tests.
package universal

import (
	"context"
	"fmt"

	"xtreesim/internal/bintree"
	"xtreesim/internal/bitstr"
	"xtreesim/internal/graph"
	"xtreesim/internal/xtree"
)

// DegreeBound is the paper's bound on the maximum degree of G_n.
const DegreeBound = 415

// SlotsPerVertex is the number of slot-vertices per X-tree vertex.
const SlotsPerVertex = 16

// Graph is the universal graph G_n.
type Graph struct {
	X *xtree.XTree
	G *graph.Graph // materialized slot graph, n = 16·(2^(r+1)−1) vertices
}

// NewForHeight builds the universal graph over X(r), with
// n = 16·(2^(r+1)−1) slot-vertices.
func NewForHeight(r int) *Graph {
	x := xtree.New(r)
	// Every slot of a is adjacent to its 15 siblings and to all 16 slots
	// of each vertex related to a in either direction.
	degree := make([]int, int(x.NumVertices())*SlotsPerVertex)
	var nset, rev []bitstr.Addr
	x.Vertices(func(a bitstr.Addr) bool {
		nset = x.AppendNSet(a, nset[:0])
		rev = x.AppendReverseN(a, rev[:0])
		related := len(nset) - 1
		for _, b := range rev {
			if !x.InN(a, b) {
				related++
			}
		}
		aSlot := int(a.ID()) * SlotsPerVertex
		for s := 0; s < SlotsPerVertex; s++ {
			degree[aSlot+s] = SlotsPerVertex - 1 + SlotsPerVertex*related
		}
		return true
	})
	g := graph.NewSized(degree)
	x.Vertices(func(a bitstr.Addr) bool {
		aSlot := int(a.ID()) * SlotsPerVertex
		// Sibling slots on the same vertex form a clique (15 edges
		// per slot).
		for s := 0; s < SlotsPerVertex; s++ {
			for q := s + 1; q < SlotsPerVertex; q++ {
				g.AddNewEdge(aSlot+s, aSlot+q)
			}
		}
		// All slots of all N(a) members.  A pair related both ways is
		// added once, from the side with the smaller id.
		nset = x.AppendNSet(a, nset[:0])
		for _, b := range nset {
			if b == a || (x.InN(b, a) && b.ID() < a.ID()) {
				continue
			}
			bSlot := int(b.ID()) * SlotsPerVertex
			for s := 0; s < SlotsPerVertex; s++ {
				for q := 0; q < SlotsPerVertex; q++ {
					g.AddNewEdge(aSlot+s, bSlot+q)
				}
			}
		}
		return true
	})
	g.SortAdjacency()
	return &Graph{X: x, G: g}
}

// NewForNodes builds G_n for n = 2^t − 16 (Theorem 4's statement).  It
// returns an error when n is not of that form.
func NewForNodes(n int64) (*Graph, error) {
	t := 5
	for int64(1)<<uint(t)-16 < n {
		t++
	}
	if int64(1)<<uint(t)-16 != n {
		return nil, fmt.Errorf("universal: n = %d is not of the form 2^t − 16", n)
	}
	return NewForHeight(t - 5), nil
}

// N returns the number of slot-vertices of G_n.
func (u *Graph) N() int { return u.G.N() }

// MaxDegree returns the materialized maximum degree (≤ DegreeBound).
func (u *Graph) MaxDegree() int { return u.G.MaxDegree() }

// Embed places the guest tree as a spanning tree of G_n: it runs the
// Theorem 1 embedding and assigns the 16 guests on every X-tree vertex the
// 16 slots injectively.  The returned slice maps every guest node to its
// slot-vertex.
func (u *Graph) Embed(t *bintree.Tree) ([]int, error) {
	if t.N() != u.N() {
		return nil, fmt.Errorf("universal: guest has %d nodes, G_n has %d", t.N(), u.N())
	}
	return place(context.Background(), t, u.X.Height())
}

// IsSpanning verifies that the assignment realizes the guest as a spanning
// tree of G_n: it is a bijection onto the slot-vertices and every guest
// edge is an edge of G_n.
func (u *Graph) IsSpanning(t *bintree.Tree, assign []int) error {
	if len(assign) != u.N() {
		return fmt.Errorf("universal: assignment covers %d of %d vertices", len(assign), u.N())
	}
	// An injective map of N() nodes into N() slots is a bijection.
	return u.IsSubgraph(t, assign)
}
