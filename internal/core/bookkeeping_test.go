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
// live component to a fresh flood of the guest from its first anchor.
// The flood must find the comp's size and node set, with every node
// under the comp's mark and no other node carrying it, and its anchors
// in order.  The comp's characteristic address must be one of the
// deepest hosts its anchors see.  A one-node lay sizes its largest
// remnant from the guest tree and lists its anchors without flooding it,
// so this is the check that the shortcut builds what a flood would.
func TestBookkeepingEveryRound(t *testing.T) {
	for r := 3; r <= 6; r++ {
		for _, f := range bintree.Families {
			tr, err := bintree.Generate(f, int(Capacity(r)), randSource(int64(r)))
			if err != nil {
				t.Fatal(err)
			}
			want, err := EmbedXTree(tr, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			e := newEmbedder(tr, xtree.New(r), r, DefaultOptions())
			chk := newBookkeepingCheck(e)
			if err := e.init16(); err != nil {
				t.Fatal(err)
			}
			chk.verify(t, fmt.Sprintf("%s X(%d) after init16", f, r))
			for i := 1; i <= r; i++ {
				e.stats.Rounds = i
				e.budgetCur++
				w := e.computeWeights(i - 1)
				for j := 0; j <= i-2; j++ {
					if err := e.runLevel(phaseAdjust, j, i, w); err != nil {
						t.Fatal(err)
					}
					chk.verify(t, fmt.Sprintf("%s X(%d) round %d, ADJUST at level %d", f, r, i, j))
				}
				if err := e.runLevel(phaseSplit, i-1, i, nil); err != nil {
					t.Fatal(err)
				}
				chk.verify(t, fmt.Sprintf("%s X(%d) round %d, SPLIT", f, r, i))
			}
			if err := e.finalPass(); err != nil {
				t.Fatal(err)
			}
			if err := e.checkAttachIdx(true); err != nil {
				t.Fatal(err)
			}
			// The loop above is run's: it must end where an embed does.
			if !slices.Equal(e.hostOf, want.Assignment) {
				t.Fatalf("%s X(%d): the repeated loop placed the guest differently from EmbedXTree", f, r)
			}
		}
	}
}

// bookkeepingCheck re-floods an embedder's live components with its own
// visited stamps, one generation per verify, touching none of the
// embedder's state.
type bookkeepingCheck struct {
	e     *embedder
	seen  []uint32
	gen   uint32
	marks map[int32]*comp
}

func newBookkeepingCheck(e *embedder) *bookkeepingCheck {
	return &bookkeepingCheck{e: e, seen: make([]uint32, e.t.N()), marks: map[int32]*comp{}}
}

func (k *bookkeepingCheck) verify(t *testing.T, where string) {
	t.Helper()
	e := k.e
	if err := e.checkAttachIdx(false); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	k.gen++
	clear(k.marks)
	for id := range e.attachHead {
		for c := e.attachHead[id]; c != nil; c = c.next {
			if prev := k.marks[c.mark]; prev != nil {
				t.Fatalf("%s: comps %d and %d share mark %d", where, prev.rank, c.rank, c.mark)
			}
			k.marks[c.mark] = c
			k.flood(t, where, c)
		}
	}
	// Every unlaid node lies in some live comp's flood.  The floods found
	// each comp's mark on all its nodes, and marks are unique, so no node
	// carries a comp's mark outside that comp.
	for v := range e.compOf {
		if !e.laid[v] && k.seen[v] != k.gen {
			t.Fatalf("%s: unlaid node %d (mark %d) lies in no live comp", where, v, e.compOf[v])
		}
	}
}

// flood runs floodNewComp's depth-first search from c's first anchor
// over every unlaid node and compares what it finds with c.
func (k *bookkeepingCheck) flood(t *testing.T, where string, c *comp) {
	t.Helper()
	e := k.e
	if len(c.anchors) == 0 {
		t.Fatalf("%s: comp %d has no anchors", where, c.rank)
	}
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
		if e.compOf[v] != c.mark {
			t.Fatalf("%s: node %d of comp %d carries mark %d, want %d", where, v, c.rank, e.compOf[v], c.mark)
		}
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
