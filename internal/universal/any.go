package universal

import (
	"context"

	"xtreesim/internal/bintree"
	"xtreesim/internal/core"
)

// NewForAtLeast builds the smallest universal graph with at least n
// slot-vertices.  Together with EmbedAny this realizes the generalization
// the paper leaves as a remark ("We have no doubt that one could
// generalize this result to hold also for arbitrary n"): every binary
// tree with at most N() nodes is a subgraph of the fixed graph.  Place
// answers the same question without building the graph.
func NewForAtLeast(n int) *Graph {
	return NewForHeight(core.OptimalHeight(n))
}

// EmbedAny embeds a guest with n ≤ N() nodes as a subgraph of G: the guest
// is padded to exactly N() nodes with a path hanging off one of its
// leaves, the padded tree is embedded as a spanning tree, and the padding
// is dropped.  The returned assignment covers only the original nodes and
// is injective.
func (u *Graph) EmbedAny(t *bintree.Tree) ([]int, error) {
	return place(context.Background(), t, u.X.Height())
}

// IsSubgraph verifies that the assignment realizes the guest as a subgraph
// of G: injective into the slot-vertices, with every guest edge an edge of
// G.
func (u *Graph) IsSubgraph(t *bintree.Tree, assign []int) error {
	return checkSubgraph(t, assign, u.N(), u.G.HasEdge)
}
