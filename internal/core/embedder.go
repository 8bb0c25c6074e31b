package core

import (
	"fmt"

	"xtreesim/internal/bintree"
	"xtreesim/internal/bitstr"
	"xtreesim/internal/separator"
	"xtreesim/internal/trace"
	"xtreesim/internal/xtree"
)

// comp is one unlaid component of the guest: a tree of the forest F_i
// induced by the not-yet-embedded nodes.
//
// anchors are its designated nodes — unlaid nodes adjacent to laid ones.
// By conditions (5) and (6) of the paper a component has at most two
// anchors and all their laid neighbors sit on one host vertex, the
// characteristic address char.  attach is the leaf of the current X-tree
// level the component is attached to (ρ_i in the paper).
type comp struct {
	id      int32 // flood marker (the value written into compOf) and creation rank
	size    int32
	anchors []int32
	char    bitstr.Addr
	attach  bitstr.Addr
	alive   bool
}

type embedder struct {
	t    *bintree.Tree
	x    *xtree.XTree
	r    int
	opts Options

	laid   []bool
	hostOf []bitstr.Addr
	loads  []int16 // indexed by host vertex id

	compOf   []int32 // guest node -> comp id, -1 when laid
	nextComp int32   // the next comp's id: ids rise in creation order

	// attachIdx maps host vertex id -> components attached there, kept
	// eagerly exact: registerComp appends, detach removes in place, so a
	// dead or moved comp never lingers in a list.  attachLoad mirrors
	// the total attached mass per vertex, which turns computeWeights
	// into a pure array pass.
	attachIdx  [][]*comp
	attachLoad []int64

	// Budget table of ADJUST, dense by vertex id with generation tags:
	// bumping budgetCur at the start of each round resets every budget
	// to the default 4 without touching the arrays.
	budgetVal []int32
	budgetGen []uint32
	budgetCur uint32

	wbuf        []int64 // computeWeights buffer
	perLevelBuf []int64 // recordImbalance buffer

	// finalQ is the final pass's FIFO worklist.  While collecting is
	// set, registerComp appends every new comp, preserving creation
	// order without the per-sweep collect-and-sort of the old code.
	finalQ     []*comp
	collecting bool

	// pref1/pref2 are the host vertices the current action lays nodes
	// on; floodNewComp prefers them on depth ties when picking a
	// stretched remnant's characteristic address.
	pref1, pref2 bitstr.Addr

	// The per-action buffers, reused across every round so a warm
	// embedder allocates (almost) nothing per round.
	nbuf    []int32 // guest adjacency
	snap    []*comp // attachedAt snapshot
	assign  []*comp // split's sorted assignment list
	laidBuf []int32 // nodes laid by the current action
	starts  []int32 // rebuild's remnant seeds
	flood   []int32 // floodNewComp's DFS stack
	charSet []bitstr.Addr

	// Killed comps wait in the graveyard until drainGraveyard moves
	// them to spare.
	spare     []*comp // recycled comp structs
	graveyard []*comp // killed comps awaiting recycling
	slab      []comp  // block-allocated backing for fresh comps

	sep      separator.Builder
	memberID int32            // component filter for memberFn
	memberFn func(int32) bool // preallocated closure over memberID

	// findSlotFor buffers (final pass).
	hostsBuf, candBuf, bfsQueue, xnbuf []bitstr.Addr
	bfsSeen                            []uint32
	bfsSeenCur                         uint32

	stats Stats

	// span is the tracing parent for the construction's phase spans
	// (separator calls, rounds, final pass); nil when unsampled, making
	// every instrumentation site a nil check.
	span *trace.Span
}

func newEmbedder(t *bintree.Tree, x *xtree.XTree, r int, opts Options) *embedder {
	n := t.N()
	nv := bitstr.NumVertices(r)
	e := &embedder{
		t:          t,
		x:          x,
		r:          r,
		opts:       opts,
		laid:       make([]bool, n),
		hostOf:     make([]bitstr.Addr, n),
		loads:      make([]int16, nv),
		compOf:     make([]int32, n),
		attachIdx:  make([][]*comp, nv),
		attachLoad: make([]int64, nv),
		budgetVal:  make([]int32, nv),
		budgetGen:  make([]uint32, nv),
		bfsSeen:    make([]uint32, nv),
		wbuf:       make([]int64, nv),
	}
	for i := range e.compOf {
		e.compOf[i] = -1
	}
	e.memberFn = func(v int32) bool {
		return !e.laid[v] && e.compOf[v] == e.memberID
	}
	return e
}

// newComp hands out a recycled (or fresh) comp struct with the next id.
func (e *embedder) newComp() *comp {
	var c *comp
	if n := len(e.spare); n > 0 {
		c = e.spare[n-1]
		e.spare = e.spare[:n-1]
		c.anchors = c.anchors[:0]
	} else {
		if len(e.slab) == 0 {
			e.slab = make([]comp, 256)
		}
		c = &e.slab[0]
		e.slab = e.slab[1:]
	}
	c.id = e.nextComp
	e.nextComp++
	c.size = 0
	c.alive = true
	return c
}

// drainGraveyard recycles the killed comps.  Only called between tasks:
// within a task, callers may still read fields of comps they just killed
// (split updates its running totals from c.size after moveCompWhole).
func (e *embedder) drainGraveyard() {
	e.spare = append(e.spare, e.graveyard...)
	for i := range e.graveyard {
		e.graveyard[i] = nil
	}
	e.graveyard = e.graveyard[:0]
}

// budgetAt reads the ADJUST placement budget of a host vertex for the
// current round, defaulting to 4 (the paper's |S1|,|S2| ≤ 4).
func (e *embedder) budgetAt(id int64) int {
	if e.budgetGen[id] != e.budgetCur {
		return 4
	}
	return int(e.budgetVal[id])
}

func (e *embedder) setBudget(id int64, v int) {
	e.budgetGen[id] = e.budgetCur
	e.budgetVal[id] = int32(v)
}

// cond3OK reports whether hosts a and b may carry adjacent guest nodes
// under condition (3′): the deeper one must lie in N(shallower).
func (e *embedder) cond3OK(a, b bitstr.Addr) bool {
	if a.Level > b.Level {
		a, b = b, a
	}
	return e.x.InN(a, b)
}

// layNode places guest node v on host vertex h, updating loads and
// validating condition (3′) against every laid neighbor.
func (e *embedder) layNode(v int32, h bitstr.Addr) error {
	if e.laid[v] {
		return fmt.Errorf("core: node %d laid twice", v)
	}
	e.nbuf = e.t.Neighbors(v, e.nbuf[:0])
	for _, u := range e.nbuf {
		if e.laid[u] && !e.cond3OK(e.hostOf[u], h) {
			e.stats.Cond3Violations++
			if e.opts.Strict {
				return fmt.Errorf("core: condition (3') violated laying %d at %v (neighbor %d at %v)",
					v, h, u, e.hostOf[u])
			}
		}
	}
	e.laid[v] = true
	e.hostOf[v] = h
	e.compOf[v] = -1
	id := h.ID()
	e.loads[id]++
	if int(e.loads[id]) > LoadTarget {
		e.stats.Overflows++
	}
	return nil
}

// free returns the open slots on a host vertex (may be negative after
// overflow).
func (e *embedder) free(h bitstr.Addr) int {
	return LoadTarget - int(e.loads[h.ID()])
}

func (e *embedder) maxLoad() int {
	max := 0
	for _, l := range e.loads {
		if int(l) > max {
			max = int(l)
		}
	}
	return max
}

// registerComp files a freshly built component under its attach address.
func (e *embedder) registerComp(c *comp) {
	id := c.attach.ID()
	e.attachIdx[id] = append(e.attachIdx[id], c)
	e.attachLoad[id] += int64(c.size)
	if e.collecting {
		e.finalQ = append(e.finalQ, c)
	}
}

// detach removes a component from the attachment index, preserving the
// relative order of the remaining entries (levelPair's first-fit scans
// depend on it).
func (e *embedder) detach(c *comp) {
	id := c.attach.ID()
	list := e.attachIdx[id]
	for i, x := range list {
		if x == c {
			copy(list[i:], list[i+1:])
			list[len(list)-1] = nil
			e.attachIdx[id] = list[:len(list)-1]
			break
		}
	}
	e.attachLoad[id] -= int64(c.size)
}

// killComp removes a component from the registry.  The struct stays
// readable until the next drainGraveyard, at the end of the task.
func (e *embedder) killComp(c *comp) {
	if !c.alive {
		return
	}
	e.detach(c)
	c.alive = false
	e.graveyard = append(e.graveyard, c)
}

// attachedAt snapshots the components currently attached to addr.  The
// returned slice is the embedder's reusable buffer — it is invalidated by
// the next attachedAt, and a copy is required because the callers mutate
// the underlying index while iterating.
func (e *embedder) attachedAt(addr bitstr.Addr) []*comp {
	e.snap = append(e.snap[:0], e.attachIdx[addr.ID()]...)
	return e.snap
}

// reattach moves a surviving component to a new attachment leaf.
func (e *embedder) reattach(c *comp, addr bitstr.Addr) {
	e.detach(c)
	c.attach = addr
	e.registerComp(c)
}

// rebuild floods the remnants of old after the given nodes were laid,
// creating one new component per connected remnant.  Each remnant's
// anchors and characteristic address are recomputed from its laid
// neighbors; new components attach at their characteristic address.
func (e *embedder) rebuild(old *comp, newlyLaid []int32) {
	oldID := old.id
	e.killComp(old)
	starts := e.starts[:0]
	for _, x := range newlyLaid {
		e.nbuf = e.t.Neighbors(x, e.nbuf[:0])
		for _, y := range e.nbuf {
			if !e.laid[y] && e.compOf[y] == oldID {
				starts = append(starts, y)
			}
		}
	}
	e.starts = starts
	for _, s := range starts {
		if e.compOf[s] != oldID {
			continue // already flooded into a new component
		}
		e.floodNewComp(s, oldID)
	}
}

// floodNewComp builds a new component from start over the unlaid nodes
// still carrying oldID, computing anchors and the characteristic address.
func (e *embedder) floodNewComp(start int32, oldID int32) *comp {
	c := e.newComp()
	id := c.id
	queue := append(e.flood[:0], start)
	e.compOf[start] = id
	charSet := e.charSet[:0]
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		c.size++
		isAnchor := false
		e.nbuf = e.t.Neighbors(v, e.nbuf[:0])
		for _, w := range e.nbuf {
			if e.laid[w] {
				isAnchor = true
				h := e.hostOf[w]
				found := false
				for _, cs := range charSet {
					if cs == h {
						found = true
						break
					}
				}
				if !found {
					charSet = append(charSet, h)
				}
				continue
			}
			if e.compOf[w] == oldID {
				e.compOf[w] = id
				queue = append(queue, w)
			}
		}
		if isAnchor {
			c.anchors = append(c.anchors, v)
		}
	}
	e.flood = queue[:0]
	var char bitstr.Addr
	switch {
	case len(charSet) == 0:
		// Unreachable in normal operation: every remnant touches a
		// laid separator node.  Anchor at the root defensively.
		char = bitstr.Root()
	case len(charSet) == 1:
		char = charSet[0]
	default:
		e.stats.StretchedComps++
		// Keep the deepest address: its anchors come due soonest.  On
		// depth ties prefer the vertex the current action laid on, so
		// the remnant attaches where the action just worked rather than
		// wherever the flood first met a laid neighbor.  The tie-break
		// decides where a stretched remnant attaches and so every later
		// placement below it: the embeddings depend on it.
		char = charSet[0]
		for _, cs := range charSet[1:] {
			if cs.Level > char.Level ||
				(cs.Level == char.Level && char != e.pref1 && char != e.pref2 &&
					(cs == e.pref1 || cs == e.pref2)) {
				char = cs
			}
		}
	}
	c.char = char
	c.attach = char
	e.charSet = charSet[:0]
	e.registerComp(c)
	return c
}

// rootedFor builds the separator view of a component, rooted at its first
// anchor.  The second return value is the guest id handed to the lemmas as
// the second designated node r2 (the other anchor, or the root itself).
// The Rooted lives in the embedder's Builder and is invalidated by the
// next rootedFor.
func (e *embedder) rootedFor(c *comp) (*separator.Rooted, int32) {
	root := c.anchors[0]
	r2 := root
	if len(c.anchors) > 1 {
		r2 = c.anchors[1]
	}
	e.memberID = c.id
	rt := e.sep.Build(e.t.Neighbors, root, e.memberFn, int(c.size))
	return rt, r2
}

// moveCompWhole lays every anchor of c on target and re-anchors the
// remnants there.  Returns the number of nodes newly laid.
func (e *embedder) moveCompWhole(c *comp, target bitstr.Addr) (int, error) {
	e.pref1, e.pref2 = target, target
	laidNow := e.laidBuf[:0]
	for _, a := range c.anchors {
		if e.laid[a] {
			continue
		}
		if err := e.layNode(a, target); err != nil {
			e.laidBuf = laidNow
			return len(laidNow), err
		}
		laidNow = append(laidNow, a)
	}
	e.laidBuf = laidNow
	e.rebuild(c, laidNow)
	return len(laidNow), nil
}

// sepSpan wraps one Lemma 2 invocation (component rooting + separator
// search) in an "embed.separator" span carrying the paper's cost
// drivers: the host level the split serves (depth), the requested mass A
// (target), the component size, and — set by the caller once the split
// is known — the achieved slack |n2 − A|, which Lemma 2 bounds by
// (A+4)/9.
func (e *embedder) sepSpan(depth, target int, size int32) *trace.Span {
	sp := e.span.Child("embed.separator")
	sp.SetAttr("depth", int64(depth)).SetAttr("target", int64(target)).SetAttr("size", int64(size))
	return sp
}

// endSepSpan closes a separator span with the achieved slack.
func endSepSpan(sp *trace.Span, split separator.Split, target int, err error) {
	if sp == nil {
		return
	}
	if err != nil {
		sp.SetAttr("error", 1)
	} else {
		slack := int64(len(split.Part2) - target)
		if slack < 0 {
			slack = -slack
		}
		sp.SetAttr("slack", slack)
	}
	sp.End()
}

// splitSizes pre-computes the separator sets of a Lemma 2 split without
// applying it, so callers can check placement budgets first.  depth is
// the host level the split serves, recorded on the separator span.
func (e *embedder) splitSizes(c *comp, target, depth int) (sp separator.Split, err error) {
	span := e.sepSpan(depth, target, c.size)
	rt, r2 := e.rootedFor(c)
	sp, err = separator.Lemma2(rt, r2, target)
	endSepSpan(span, sp, target, err)
	return sp, err
}

// applySplit lays a precomputed split.
func (e *embedder) applySplit(c *comp, sp separator.Split, hStay, hMove bitstr.Addr) error {
	e.pref1, e.pref2 = hStay, hMove
	laidNow := e.laidBuf[:0]
	for _, g := range sp.S1 {
		if err := e.layNode(g, hStay); err != nil {
			return err
		}
		laidNow = append(laidNow, g)
	}
	for _, g := range sp.S2 {
		if err := e.layNode(g, hMove); err != nil {
			return err
		}
		laidNow = append(laidNow, g)
	}
	e.laidBuf = laidNow
	e.rebuild(c, laidNow)
	return nil
}
