package core

import (
	"fmt"
	"slices"
	"testing"

	"xtreesim/internal/bintree"
	"xtreesim/internal/bitstr"
	"xtreesim/internal/xtree"
)

// TestBookkeepingEveryRound repeats run's loop — init16, each round's
// runLevel calls, the final pass — and after every runLevel holds each
// live component to a fresh flood of the guest's unlaid nodes from its
// first anchor.  The floods of the live comps must be pairwise disjoint
// and cover every unlaid node, and each must find its comp's size and
// anchors in order.  The comp's characteristic address must be one of the
// deepest hosts its anchors see.  A one-node lay and init16 build their
// remnants from the guest's subtree intervals without visiting them, so
// this is the check that they build what a flood would.  Every guest runs
// twice: as generated, every parent numbered before its children, and
// with its nodes renumbered at random.  Lemma 2's separator sets are
// sorted by node id, so the numbering decides which remnant's seed comes
// first; only renumbered guests (paths among them) make a one-node lay
// cut a remnant off through the laid node's parent.
func TestBookkeepingEveryRound(t *testing.T) {
	for r := 3; r <= 6; r++ {
		for _, f := range bintree.Families {
			tr, err := bintree.Generate(f, int(Capacity(r)), randSource(int64(r)))
			if err != nil {
				t.Fatal(err)
			}
			checkBookkeeping(t, tr, r, fmt.Sprintf("%s X(%d)", f, r))
			checkBookkeeping(t, renumbered(t, tr, int64(r)), r, fmt.Sprintf("renumbered %s X(%d)", f, r))
		}
	}
}

// checkBookkeeping runs the loop of TestBookkeepingEveryRound on one
// guest.
func checkBookkeeping(t *testing.T, tr *bintree.Tree, r int, name string) {
	t.Helper()
	want, err := EmbedXTree(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e := newEmbedder(tr, xtree.New(r), r, DefaultOptions())
	chk := newBookkeepingCheck(e)
	if err := e.init16(); err != nil {
		t.Fatal(err)
	}
	chk.verify(t, name+" after init16")
	for i := 1; i <= r; i++ {
		e.stats.Rounds = i
		e.budgetCur++
		w := e.computeWeights(i - 1)
		for j := 0; j <= i-2; j++ {
			if err := e.runLevel(phaseAdjust, j, i, w); err != nil {
				t.Fatal(err)
			}
			chk.verify(t, fmt.Sprintf("%s round %d, ADJUST at level %d", name, i, j))
		}
		if err := e.runLevel(phaseSplit, i-1, i, nil); err != nil {
			t.Fatal(err)
		}
		chk.verify(t, fmt.Sprintf("%s round %d, SPLIT", name, i))
	}
	if err := e.finalPass(); err != nil {
		t.Fatal(err)
	}
	if err := e.checkAttachIdx(true); err != nil {
		t.Fatal(err)
	}
	// The loop above is run's: it must end where an embed does.
	if !slices.Equal(e.hostOf, want.Assignment) {
		t.Fatalf("%s: the repeated loop placed the guest differently from EmbedXTree", name)
	}
}

// renumbered returns tr with its nodes renumbered by a random permutation.
func renumbered(t *testing.T, tr *bintree.Tree, seed int64) *bintree.Tree {
	t.Helper()
	n := tr.N()
	id := randSource(seed).Perm(n)
	parent, side := make([]int32, n), make([]byte, n)
	for v := int32(0); v < int32(n); v++ {
		parent[id[v]] = bintree.None
		if p := tr.Parent(v); p != bintree.None {
			parent[id[v]] = int32(id[p])
			if tr.Right(p) == v {
				side[id[v]] = 1
			}
		}
	}
	out, err := bintree.NewFromParents(parent, side)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// bookkeepingCheck re-floods an embedder's live components with its own
// visited stamps, one generation per verify, touching none of the
// embedder's state.
type bookkeepingCheck struct {
	e    *embedder
	seen []uint32
	gen  uint32
}

func newBookkeepingCheck(e *embedder) *bookkeepingCheck {
	return &bookkeepingCheck{e: e, seen: make([]uint32, e.t.N())}
}

func (k *bookkeepingCheck) verify(t *testing.T, where string) {
	t.Helper()
	e := k.e
	if err := e.checkAttachIdx(false); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	k.gen++
	for id := range e.attachHead {
		for c := e.attachHead[id]; c != nil; c = c.next {
			if len(c.anchors) == 0 {
				t.Fatalf("%s: comp %d has no anchors", where, c.rank)
			}
			// A flood covers its start's whole component, so the floods
			// are disjoint unless a start lies in an earlier flood.
			if k.seen[c.anchors[0]] == k.gen {
				t.Fatalf("%s: comp %d starts inside an earlier comp's flood", where, c.rank)
			}
			k.flood(t, where, c)
		}
	}
	for v := range e.laid {
		if !e.laid[v] && k.seen[v] != k.gen {
			t.Fatalf("%s: unlaid node %d lies in no live comp", where, v)
		}
	}
}

// flood runs floodNewComp's depth-first search from c's first anchor
// over every unlaid node and compares what it finds with c.
func (k *bookkeepingCheck) flood(t *testing.T, where string, c *comp) {
	t.Helper()
	e := k.e
	var size int32
	var anchors []int32
	var hosts []bitstr.Addr
	stack := []int32{c.anchors[0]}
	k.seen[c.anchors[0]] = k.gen
	var nbuf []int32
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		size++
		anchor := false
		nbuf = e.t.Neighbors(v, nbuf[:0])
		for _, w := range nbuf {
			if e.laid[w] {
				anchor = true
				hosts = append(hosts, e.hostOf[w])
				continue
			}
			if k.seen[w] != k.gen {
				k.seen[w] = k.gen
				stack = append(stack, w)
			}
		}
		if anchor {
			anchors = append(anchors, v)
		}
	}
	if size != c.size {
		t.Fatalf("%s: comp %d has size %d, its flood finds %d nodes", where, c.rank, c.size, size)
	}
	if !slices.Equal(anchors, c.anchors) {
		t.Fatalf("%s: comp %d lists anchors %v, its flood finds %v", where, c.rank, c.anchors, anchors)
	}
	deepest := -1
	for _, h := range hosts {
		deepest = max(deepest, h.Level)
	}
	if c.char.Level != deepest || !slices.Contains(hosts, c.char) {
		t.Fatalf("%s: comp %d has char %v, not one of the deepest hosts %v its anchors see", where, c.rank, c.char, hosts)
	}
}

// TestOneNodeLayFloodsTwoInnerAnchors builds by hand the one case in
// which a one-node lay still floods: a remnant holding two anchors of the
// cut comp besides its seed.  Anchor a hangs under a laid parent; its
// child y has children u (left) and v (right), each with a laid child,
// so the comp {a, y, u, v} has three anchors.  Laying a leaves the
// remnant {y, u, v}, whose inner anchors only a flood orders: it pops v
// before u.  The remnant must equal what a fresh flood from y builds.
func TestOneNodeLayFloodsTwoInnerAnchors(t *testing.T) {
	const p, a, y, u, v, uc, vc = 0, 1, 2, 3, 4, 5, 6
	// Nodes 7 and 8 hang below the laid children, outside every remnant.
	tr, err := bintree.NewFromParents([]int32{-1, p, a, y, y, u, v, uc, vc}, []byte{0, 0, 0, 0, 1, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	root, left, right := bitstr.Root(), bitstr.Addr{Level: 1, Index: 0}, bitstr.Addr{Level: 1, Index: 1}
	build := func(cut func(e *embedder, old *comp)) *comp {
		e := newEmbedder(tr, xtree.New(2), 2, DefaultOptions())
		for _, l := range []struct {
			v int32
			h bitstr.Addr
		}{{p, root}, {uc, left}, {vc, right}} {
			if err := e.layNode(l.v, l.h); err != nil {
				t.Fatal(err)
			}
		}
		e.floodGen++
		e.floodNewComp(a)
		old := liveCompFrom(t, e, a)
		if want := []int32{a, v, u}; old.size != 4 || !slices.Equal(old.anchors, want) {
			t.Fatalf("the hand-built comp has size %d and anchors %v, want 4 and %v", old.size, old.anchors, want)
		}
		if err := e.layNode(a, root); err != nil {
			t.Fatal(err)
		}
		e.pref1, e.pref2 = root, root
		cut(e, old)
		if err := e.checkAttachIdx(false); err != nil {
			t.Fatal(err)
		}
		return liveCompFrom(t, e, y)
	}
	got := build(func(e *embedder, old *comp) { e.rebuild(old, []int32{a}) })
	want := build(func(e *embedder, old *comp) {
		e.killComp(old)
		e.floodGen++
		e.floodNewComp(y)
	})
	if got.size != want.size || !slices.Equal(got.anchors, want.anchors) || got.char != want.char || got.rank != want.rank {
		t.Fatalf("laying a leaves size %d, anchors %v, char %v, rank %d; a fresh flood builds %d, %v, %v, %d",
			got.size, got.anchors, got.char, got.rank, want.size, want.anchors, want.char, want.rank)
	}
	if !slices.Equal(got.anchors, []int32{y, v, u}) || got.size != 3 || got.char != right {
		t.Fatalf("the remnant has size %d, anchors %v and char %v, want 3, [%d %d %d] and %v",
			got.size, got.anchors, got.char, y, v, u, right)
	}
}

// liveCompFrom returns the live comp whose first anchor is node.
func liveCompFrom(t *testing.T, e *embedder, node int32) *comp {
	t.Helper()
	for id := range e.attachHead {
		for c := e.attachHead[id]; c != nil; c = c.next {
			if c.anchors[0] == node {
				return c
			}
		}
	}
	t.Fatalf("no live comp starts at node %d", node)
	return nil
}
