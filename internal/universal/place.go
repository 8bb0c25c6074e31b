package universal

import (
	"context"
	"fmt"

	"xtreesim/internal/bintree"
	"xtreesim/internal/bitstr"
	"xtreesim/internal/core"
	"xtreesim/internal/xtree"
)

// Place embeds the guest as a subgraph of the smallest universal graph
// with room for it, the G over X(OptimalHeight(n)), without building G.
// It runs EmbedAny's embedding and IsSubgraph's checks, except that each
// guest edge is checked by Theorem 4's X-tree rule (slotsAdjacent)
// instead of in G's adjacency lists.  slots maps every guest node to its
// slot-vertex; size is G's slot count, core.Capacity(OptimalHeight(n)),
// reported on failure too.  The embedder's phase spans are recorded under
// ctx's span.
func Place(ctx context.Context, t *bintree.Tree) (slots []int, size int, err error) {
	r := core.OptimalHeight(t.N())
	size = int(core.Capacity(r))
	if slots, err = place(ctx, t, r); err == nil {
		err = checkByRule(r, t, slots)
	}
	if err != nil {
		return nil, size, err
	}
	return slots, size, nil
}

// checkByRule is IsSubgraph for the G over X(r), with every guest edge
// checked by slotsAdjacent instead of in G.
func checkByRule(r int, t *bintree.Tree, slots []int) error {
	x := xtree.New(r)
	return checkSubgraph(t, slots, int(core.Capacity(r)), func(s, q int) bool { return slotsAdjacent(x, s, q) })
}

// slotsAdjacent is Theorem 4's definition of G's edges read off the
// X-tree: two distinct slot-vertices are adjacent exactly when their
// X-tree vertices are equal or N-related (Figure 2) in either direction.
func slotsAdjacent(x *xtree.XTree, s, q int) bool {
	a := bitstr.FromID(int64(s / SlotsPerVertex))
	b := bitstr.FromID(int64(q / SlotsPerVertex))
	return a == b || x.InN(a, b) || x.InN(b, a)
}

// place is the one embedding path behind Embed, EmbedAny and Place.  It
// pads the guest to Capacity(r) nodes, runs the strict Theorem 1
// embedding into X(r), and hands the 16 nodes on every X-tree vertex its
// 16 slots injectively.  The returned slots cover the guest's own nodes.
func place(ctx context.Context, t *bintree.Tree, r int) ([]int, error) {
	n, size := t.N(), int(core.Capacity(r))
	if n == 0 {
		return nil, fmt.Errorf("universal: empty guest")
	}
	if n > size {
		return nil, fmt.Errorf("universal: guest has %d nodes, G has only %d", n, size)
	}
	full := t
	if n < size {
		var err error
		if full, err = pad(t, size); err != nil {
			return nil, err
		}
	}
	res, err := core.EmbedXTreeContext(ctx, full, core.Options{Height: r, Strict: true})
	if err != nil {
		return nil, err
	}
	if res.Stats.Cond3Violations > 0 || res.Stats.FinalFallbacks > 0 {
		return nil, fmt.Errorf("universal: embedding broke condition (3′)")
	}
	// Padding nodes take slots too (ids n and up, after the guest's own),
	// so an overfull vertex fails wherever it lies.
	next := make([]uint8, res.Host.NumVertices())
	slots := make([]int, n)
	for v, a := range res.Assignment {
		id := a.ID()
		if next[id] >= SlotsPerVertex {
			return nil, fmt.Errorf("universal: vertex %v over capacity", a)
		}
		if v < n {
			slots[v] = int(id)*SlotsPerVertex + int(next[id])
		}
		next[id]++
	}
	return slots, nil
}

// pad extends the guest to size nodes with a path hanging off its first
// node with a free left-child slot (a leaf always qualifies).  The
// guest's nodes keep their ids; the path takes ids n..size-1, each the
// left child of the one before.
func pad(t *bintree.Tree, size int) (*bintree.Tree, error) {
	n := t.N()
	hook := int32(-1)
	for v := int32(0); v < int32(n); v++ {
		if t.Left(v) == bintree.None {
			hook = v
			break
		}
	}
	parents := make([]int32, size)
	sides := make([]byte, size)
	for v := int32(0); v < int32(n); v++ {
		p := t.Parent(v)
		parents[v] = p
		if p != bintree.None && t.Right(p) == v {
			sides[v] = 1
		}
	}
	parents[n] = hook
	for v := n + 1; v < size; v++ {
		parents[v] = int32(v - 1)
	}
	padded, err := bintree.NewFromParents(parents, sides)
	if err != nil {
		return nil, fmt.Errorf("universal: padding failed: %w", err)
	}
	return padded, nil
}

// checkSubgraph verifies that assign realizes the guest as a subgraph of
// a graph on size slot-vertices: injective into them, with every guest
// edge joining two slots that hasEdge reports adjacent.
func checkSubgraph(t *bintree.Tree, assign []int, size int, hasEdge func(s, q int) bool) error {
	if len(assign) != t.N() {
		return fmt.Errorf("universal: assignment covers %d of %d nodes", len(assign), t.N())
	}
	seen := make([]bool, size)
	for v, s := range assign {
		if s < 0 || s >= size {
			return fmt.Errorf("universal: node %d on invalid slot %d", v, s)
		}
		if seen[s] {
			return fmt.Errorf("universal: slot %d used twice", s)
		}
		seen[s] = true
	}
	for v := int32(0); v < int32(t.N()); v++ {
		if p := t.Parent(v); p != bintree.None && !hasEdge(assign[v], assign[p]) {
			return fmt.Errorf("universal: guest edge %d-%d missing from G", v, p)
		}
	}
	return nil
}
