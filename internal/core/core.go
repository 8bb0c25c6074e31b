// Package core implements the paper's primary contribution: algorithm
// X-TREE (Monien, SPAA '91, §2), which embeds an arbitrary binary tree
// with n = 16·(2^(r+1)−1) nodes into the X-tree X(r) with dilation 3,
// load factor 16 and optimal expansion (Theorem 1), plus the derived
// constructions: the injective dilation-11 embedding into X(r+4)
// (Theorem 2) and the load-16 dilation-4 hypercube embedding (Theorem 3).
//
// The algorithm proceeds in rounds i = 1..r.  Round i extends the partial
// embedding δ_{i−1} (which fills the X-tree down to level i−1 with 16
// guest nodes per vertex) to level i:
//
//   - ADJUST(α0, α1, i) for every vertex pair on levels 0..i−2 uses the
//     horizontal edge between the two new boundary leaves below α0 and α1
//     to shift whole components or lemma-2 splits of components across,
//     halving the subtree imbalance;
//   - SPLIT(α, i) for every α on level i−1 distributes α's attached
//     components to the children α0, α1, lays out the designated nodes
//     whose laid neighbors sit two levels up (condition (4)), levels the
//     two children with one more lemma-2 split, and fills both children
//     up to 16 nodes.
//
// The paper is an extended abstract: the revision of ADJUST (§2(iv)), some
// estimations and the final rearrangement are omitted in the original.
// This implementation makes those engineering choices explicit (see
// DESIGN.md), enforces the dilation invariant (condition (3′)) on every
// placement, and reports measured load, imbalance and any fallbacks in
// Stats rather than assuming the theorem.
package core

import (
	"context"
	"fmt"

	"xtreesim/internal/bintree"
	"xtreesim/internal/bitstr"
	"xtreesim/internal/metrics"
	"xtreesim/internal/trace"
	"xtreesim/internal/xtree"
)

// LoadTarget is the per-vertex load of Theorem 1.
const LoadTarget = 16

// Options configure the embedder.
type Options struct {
	// Height forces the host X-tree height; -1 selects the smallest
	// height whose capacity 16·(2^(r+1)−1) is at least the guest size
	// (the "optimal" X-tree).
	Height int
	// Strict makes any violation of condition (3′) — a placement whose
	// host vertex is not within the N-neighborhood of a laid neighbor's
	// vertex — a hard error instead of a counted event.
	Strict bool
	// DisableAdjust ablates the ADJUST phase (the horizontal-edge
	// rebalancing).  For the ablation experiment only: without it the
	// sibling imbalance no longer contracts and the final pass needs
	// out-of-neighborhood fallbacks, breaking the dilation bound.
	DisableAdjust bool
	// DisableLeveling ablates SPLIT's final lemma-2 cut across the new
	// horizontal edge (the "4 free places" step of the paper).
	DisableLeveling bool
	// ImbalanceStats enables the per-round A(j,i) instrumentation
	// (Stats.MaxImbalance and Stats.ImbalanceMatrix).  Off by default:
	// measuring the matrix costs one extra full weight pass per round,
	// which the serving hot path should not pay.
	ImbalanceStats bool
}

// DefaultOptions returns the options used by the theorem statements.
func DefaultOptions() Options { return Options{Height: -1} }

// Stats reports what the construction actually did, for the experiment
// tables (EXPERIMENTS.md) and the A(j,i) instrumentation of §2(iii).
type Stats struct {
	Rounds          int
	MaxLoad         int
	Overflows       int   // placements beyond LoadTarget on a vertex
	Cond3Violations int   // placements breaking condition (3′)
	StretchedComps  int   // components whose anchors see two host vertices
	AdjustResidual  int   // total unresolved half-difference after ADJUSTs
	FillDeficits    int   // vertices left under 16 during SPLIT fill-up
	FinalFallbacks  int   // final-pass placements outside every N-set
	MaxImbalance    []int // per round: max sibling half-difference after the round
	// ImbalanceMatrix[i-1][j] is A(j,i) as measured: after round i, the
	// maximum half-difference |A_i(α0)| − |A_i(α1)| over sibling pairs
	// whose parent α sits on level j (0 ≤ j ≤ i−1).  §2(iii) of the
	// paper bounds these by 2^{r+j+4−2i} for j < i (and 0 once
	// 2i ≥ r+j+2); experiment E8 checks the measured matrix against
	// that envelope.
	ImbalanceMatrix [][]int
}

// Result is a computed embedding of a guest tree into an X-tree.
type Result struct {
	Guest      *bintree.Tree
	Host       *xtree.XTree
	Assignment []bitstr.Addr // guest node -> host vertex
	Stats      Stats
}

// OptimalHeight returns the smallest r with 16·(2^(r+1)−1) ≥ n.
func OptimalHeight(n int) int {
	r := 0
	for 16*(int64(1)<<(uint(r)+1)-1) < int64(n) {
		r++
	}
	return r
}

// maxHeight returns the largest host height EmbedXTree accepts for an
// n-node guest: OptimalHeight(n)+4, the height of Theorem 2's injective
// host, but at least 20.  The host arrays grow as 2^height whatever the
// guest's size, so a higher pin asks for gigabytes (X(20) already takes
// about 100 MB), and from 58 up the sizes overflow.
func maxHeight(n int) int { return max(OptimalHeight(n)+4, 20) }

// Capacity returns 16·(2^(r+1)−1), the node capacity of X(r) at load 16.
func Capacity(r int) int64 { return 16 * (int64(1)<<(uint(r)+1) - 1) }

// EmbedXTree runs algorithm X-TREE on the guest tree.
func EmbedXTree(t *bintree.Tree, opts Options) (*Result, error) {
	return EmbedXTreeContext(context.Background(), t, opts)
}

// EmbedXTreeContext is EmbedXTree with span tracing: when ctx carries a
// sampled trace span, the construction records its phases — host build, every Lemma 2 separator call with
// depth and slack, per-round ADJUST+SPLIT, the final redistribution —
// as child spans.  Without a span the calls cost nil checks only.
func EmbedXTreeContext(ctx context.Context, t *bintree.Tree, opts Options) (*Result, error) {
	n := t.N()
	if n == 0 {
		return nil, fmt.Errorf("core: empty guest tree")
	}
	r := opts.Height
	if r < 0 {
		r = OptimalHeight(n)
	}
	if limit := maxHeight(n); r > limit {
		return nil, fmt.Errorf("core: pinned height %d above the limit %d for a %d-node guest", r, limit, n)
	}
	if Capacity(r) < int64(n) {
		return nil, fmt.Errorf("core: X(%d) capacity %d < guest size %d", r, Capacity(r), n)
	}
	span := trace.FromContext(ctx)
	hb := span.Child("embed.host-build")
	x := xtree.New(r)
	hb.SetAttr("height", int64(r)).SetAttr("vertices", x.NumVertices()).End()
	e := newEmbedder(t, x, r, opts)
	e.span = span
	if err := e.run(); err != nil {
		return nil, err
	}
	res := &Result{
		Guest:      t,
		Host:       e.x,
		Assignment: e.hostOf,
		Stats:      e.stats,
	}
	res.Stats.MaxLoad = e.maxLoad()
	span.SetAttr("n", int64(n))
	return res, nil
}

// Embedding adapts the result for the metrics package.
func (res *Result) Embedding() *metrics.Embedding {
	return metrics.XTreeEmbedding(res.Guest, res.Host, res.Assignment)
}

// Dilation measures the exact dilation of the result.
func (res *Result) Dilation() int { return res.Embedding().Dilation() }

// MaxLoad returns the measured load factor.
func (res *Result) MaxLoad() int { return res.Stats.MaxLoad }

// Expansion returns |X(r)| / n.
func (res *Result) Expansion() float64 {
	return float64(res.Host.NumVertices()) / float64(res.Guest.N())
}
