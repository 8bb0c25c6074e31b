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
//
// mark is the value compOf holds for the comp's nodes; the largest
// remnant of a one-node lay inherits the mark of the comp it was cut
// from, so its nodes are never rewritten.  rank is the creation rank,
// unique per comp: split and finalPass order comps by it.
type comp struct {
	mark      int32
	rank      int32
	size      int32
	alive     bool
	anchorBuf [2]int32 // inline storage for anchors
	anchors   []int32
	char      bitstr.Addr
	attach    bitstr.Addr
	// prev and next link the comps attached at attach, in registration
	// order.
	prev, next *comp
}

type embedder struct {
	t    *bintree.Tree
	x    *xtree.XTree
	r    int
	opts Options

	laid   []bool
	hostOf []bitstr.Addr
	loads  []int16 // indexed by host vertex id

	compOf   []int32 // guest node -> comp mark, -1 when laid
	nextRank int32   // the next comp's rank: ranks rise in creation order

	// sub and pre are the guest's subtree sizes and preorder ranks,
	// rooted at t.Root(), which size the remnants of a one-node lay.
	sub, pre []int32

	// attachHead and attachTail hold, per host vertex id, the ends of
	// the list of components attached there, kept eagerly exact:
	// registerComp appends, detach unlinks, so a dead or moved comp never
	// lingers in a list.  attachLoad mirrors the total attached mass per
	// vertex, which turns computeWeights into a pure array pass.
	attachHead, attachTail []*comp
	attachLoad             []int64

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
	// on; settle prefers them on depth ties when picking a stretched
	// remnant's characteristic address.
	pref1, pref2 bitstr.Addr

	// The per-action buffers, reused across every round so a warm
	// embedder allocates (almost) nothing per round.
	nbuf    []int32       // guest adjacency
	snap    []*comp       // attachedAt snapshot
	assign  []*comp       // split's sorted assignment list
	laidBuf []int32       // nodes laid by the current action
	starts  []int32       // rebuild's remnant seeds
	flood   []int32       // floodNewComp's DFS stack
	charSet []bitstr.Addr // characteristic-address candidates

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
		sub:        make([]int32, n),
		pre:        make([]int32, n),
		attachHead: make([]*comp, nv),
		attachTail: make([]*comp, nv),
		attachLoad: make([]int64, nv),
		budgetVal:  make([]int32, nv),
		budgetGen:  make([]uint32, nv),
		bfsSeen:    make([]uint32, nv),
		wbuf:       make([]int64, nv),
	}
	for i := range e.compOf {
		e.compOf[i] = -1
	}
	e.guestIntervals()
	e.memberFn = func(v int32) bool {
		return !e.laid[v] && e.compOf[v] == e.memberID
	}
	return e
}

// guestIntervals fills sub and pre by one preorder walk that climbs
// parent links instead of keeping a stack: a node's subtree is numbered
// when the walk leaves it upward.
func (e *embedder) guestIntervals() {
	t := e.t
	var next int32
	for v := t.Root(); ; {
		e.pre[v] = next
		next++
		if c := t.Left(v); c != bintree.None {
			v = c
			continue
		}
		if c := t.Right(v); c != bintree.None {
			v = c
			continue
		}
		for {
			e.sub[v] = next - e.pre[v]
			p := t.Parent(v)
			if p == bintree.None {
				return
			}
			if c := t.Right(p); c != bintree.None && c != v {
				v = c
				break
			}
			v = p
		}
	}
}

// within reports whether guest node u lies in the subtree of v.
func (e *embedder) within(u, v int32) bool {
	return e.pre[v] <= e.pre[u] && e.pre[u] < e.pre[v]+e.sub[v]
}

// newComp hands out a recycled (or fresh) comp struct with the next rank,
// marked with its rank.
func (e *embedder) newComp() *comp {
	var c *comp
	if n := len(e.spare); n > 0 {
		c = e.spare[n-1]
		e.spare = e.spare[:n-1]
		c.anchors = c.anchors[:0]
	} else {
		if len(e.slab) == 0 {
			// An embed takes about one fresh comp per three guest
			// nodes, so a small guest gets a smaller block.
			e.slab = make([]comp, min(256, e.t.N()/2+16))
		}
		c = &e.slab[0]
		e.slab = e.slab[1:]
		c.anchors = c.anchorBuf[:0]
	}
	c.rank = e.nextRank
	c.mark = c.rank
	e.nextRank++
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

// registerComp files a freshly built component at the tail of its
// attach address's list.
func (e *embedder) registerComp(c *comp) {
	id := c.attach.ID()
	c.prev, c.next = e.attachTail[id], nil
	if c.prev != nil {
		c.prev.next = c
	} else {
		e.attachHead[id] = c
	}
	e.attachTail[id] = c
	e.attachLoad[id] += int64(c.size)
	if e.collecting {
		e.finalQ = append(e.finalQ, c)
	}
}

// detach unlinks a component from the attachment index, preserving the
// relative order of the remaining entries (levelPair's first-fit scans
// depend on it).
func (e *embedder) detach(c *comp) {
	id := c.attach.ID()
	if c.prev != nil {
		c.prev.next = c.next
	} else {
		e.attachHead[id] = c.next
	}
	if c.next != nil {
		c.next.prev = c.prev
	} else {
		e.attachTail[id] = c.prev
	}
	c.prev, c.next = nil, nil
	e.attachLoad[id] -= int64(c.size)
}

// appendAttached appends the components attached at vertex id to buf, in
// list order.
func (e *embedder) appendAttached(buf []*comp, id int64) []*comp {
	for c := e.attachHead[id]; c != nil; c = c.next {
		buf = append(buf, c)
	}
	return buf
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
	e.snap = e.appendAttached(e.snap[:0], addr.ID())
	return e.snap
}

// reattach moves a surviving component to a new attachment leaf.
func (e *embedder) reattach(c *comp, addr bitstr.Addr) {
	e.detach(c)
	c.attach = addr
	e.registerComp(c)
}

// rebuild replaces old, after the given nodes were laid, by one new
// component per connected remnant.  Each remnant's anchors and
// characteristic address are recomputed from its laid neighbors; new
// components attach at their characteristic address.  Remnants take
// ranks and register in the order of their seeds.
func (e *embedder) rebuild(old *comp, newlyLaid []int32) {
	mark := old.mark
	e.killComp(old)
	starts := e.starts[:0]
	for _, x := range newlyLaid {
		e.nbuf = e.t.Neighbors(x, e.nbuf[:0])
		for _, y := range e.nbuf {
			if !e.laid[y] && e.compOf[y] == mark {
				starts = append(starts, y)
			}
		}
	}
	e.starts = starts
	if len(newlyLaid) == 1 && e.keepLargest(old, newlyLaid[0], starts) {
		return
	}
	for _, s := range starts {
		if e.compOf[s] != mark {
			continue // already flooded into a new component
		}
		e.floodNewComp(s, mark)
	}
}

// keepLargest rebuilds old after the one node a was laid.  Each of a's
// unlaid neighbours in starts seeds one remnant, sized from the guest
// tree: the remnant through a child s is s's subtree less the subtrees of
// the laid children of old's anchors inside it, and the remnant through
// a's parent holds the rest.  Every remnant but the largest is flooded;
// the largest becomes a fresh comp that keeps old's mark, so none of its
// nodes is touched.  Its anchors are its seed, which the flood would pop
// first, then the one anchor of old inside it.  When two or more of old's
// anchors besides the seed lie inside, only the flood knows their order:
// keepLargest then changes nothing and reports false.
func (e *embedder) keepLargest(old *comp, a int32, starts []int32) bool {
	if len(starts) == 0 {
		return true
	}
	var size [3]int32
	var inner [3]int32 // an anchor of old inside the remnant, not its seed
	var nInner [3]int
	up := -1 // the remnant through a's parent
	for i, s := range starts {
		inner[i] = -1
		if s == e.t.Parent(a) {
			up = i
			continue
		}
		size[i] = e.sub[s]
	}
	for _, u := range old.anchors {
		if u == a {
			continue
		}
		in := up
		for i, s := range starts {
			if i != up && e.within(u, s) {
				in = i
				for _, h := range [2]int32{e.t.Left(u), e.t.Right(u)} {
					if h != bintree.None && e.laid[h] {
						size[i] -= e.sub[h]
					}
				}
				break
			}
		}
		if in < 0 {
			return false // no remnant holds u: leave it to the flood
		}
		if u != starts[in] {
			inner[in] = u
			nInner[in]++
		}
	}
	if up >= 0 {
		size[up] = old.size - 1
		for i := range starts {
			if i != up {
				size[up] -= size[i]
			}
		}
	}
	largest := 0
	for i := range starts {
		if size[i] > size[largest] {
			largest = i
		}
	}
	if nInner[largest] > 1 {
		return false
	}
	for i, s := range starts {
		if i != largest {
			e.floodNewComp(s, old.mark)
			continue
		}
		c := e.newComp()
		c.mark = old.mark
		c.size = size[i]
		c.anchors = append(c.anchors, s)
		if inner[i] >= 0 {
			c.anchors = append(c.anchors, inner[i])
		}
		// The candidates in the order the flood meets them: anchor by
		// anchor, each one's neighbours in Neighbors order.
		charSet := e.charSet[:0]
		for _, v := range c.anchors {
			e.nbuf = e.t.Neighbors(v, e.nbuf[:0])
			for _, w := range e.nbuf {
				if e.laid[w] {
					charSet = addHost(charSet, e.hostOf[w])
				}
			}
		}
		e.settle(c, charSet)
	}
	return true
}

// floodNewComp builds a new component from start over the unlaid nodes
// still carrying mark, computing anchors and the characteristic address.
func (e *embedder) floodNewComp(start int32, mark int32) {
	c := e.newComp()
	queue := append(e.flood[:0], start)
	e.compOf[start] = c.mark
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
				charSet = addHost(charSet, e.hostOf[w])
				continue
			}
			if e.compOf[w] == mark {
				e.compOf[w] = c.mark
				queue = append(queue, w)
			}
		}
		if isAnchor {
			c.anchors = append(c.anchors, v)
		}
	}
	e.flood = queue[:0]
	e.settle(c, charSet)
}

// addHost appends h to the candidate set unless it is already there.
func addHost(set []bitstr.Addr, h bitstr.Addr) []bitstr.Addr {
	for _, cs := range set {
		if cs == h {
			return set
		}
	}
	return append(set, h)
}

// settle picks a new component's characteristic address from the hosts
// its anchors' laid neighbours sit on, in the order the flood meets them,
// and registers the component there.
func (e *embedder) settle(c *comp, charSet []bitstr.Addr) {
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
	e.memberID = c.mark
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
