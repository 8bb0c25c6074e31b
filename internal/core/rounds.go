package core

import (
	"cmp"
	"slices"

	"xtreesim/internal/bitstr"
	"xtreesim/internal/separator"
)

// Phase kinds dispatched by runLevel.
const (
	phaseAdjust = iota
	phaseSplit
)

// run executes algorithm X-TREE: the initial 16-node seed at the root,
// r rounds of ADJUST+SPLIT, and the final redistribution.
func (e *embedder) run() error {
	if err := e.init16(); err != nil {
		return err
	}
	for i := 1; i <= e.r; i++ {
		rsp := e.span.Child("embed.round")
		rsp.SetAttr("round", int64(i))
		e.stats.Rounds = i
		e.budgetCur++ // reset every ADJUST budget to the default
		w := e.computeWeights(i - 1)
		if e.opts.DisableAdjust {
			w = nil
		}
		for j := 0; w != nil && j <= i-2; j++ {
			if err := e.runLevel(phaseAdjust, j, i, w); err != nil {
				rsp.End()
				return err
			}
		}
		if err := e.runLevel(phaseSplit, i-1, i, nil); err != nil {
			rsp.End()
			return err
		}
		if e.opts.ImbalanceStats {
			e.recordImbalance(i)
		}
		rsp.End()
	}
	fsp := e.span.Child("embed.final-pass")
	err := e.finalPass()
	fsp.SetAttr("fallbacks", int64(e.stats.FinalFallbacks)).End()
	if err != nil {
		return err
	}
	return e.checkAttachIdx(true)
}

// runLevel runs one phase — ADJUST at level `level` of round i, or SPLIT
// of the leaves at level i−1 — over every alpha of that level in index
// order.  Each alpha is one task; the comps a task killed are recycled
// once it is done.
func (e *embedder) runLevel(kind, level, round int, w []int64) error {
	for idx := uint64(0); idx < uint64(1)<<uint(level); idx++ {
		alpha := bitstr.Addr{Level: level, Index: idx}
		var err error
		if kind == phaseAdjust {
			err = e.adjustPair(alpha, round, w)
		} else {
			err = e.split(alpha, round)
		}
		e.drainGraveyard()
		if err != nil {
			return err
		}
	}
	return nil
}

// init16 lays the first 16 guest nodes (a connected subtree found by BFS
// from the guest root) onto the X-tree root ε, then registers the hanging
// subtrees as components anchored at ε.  This is the embedding δ0.  The
// BFS walks children only, so its queue ends with the unlaid children of
// the laid nodes, in the order floods from the laid nodes would meet
// them; each one's subtree is one component, sized by sub, whose one
// anchor is that child.
func (e *embedder) init16() error {
	want := min(LoadTarget, e.t.N())
	queue := append(e.flood[:0], e.t.Root())
	for head := 0; head < want; head++ {
		v := queue[head]
		if err := e.layNode(v, bitstr.Root()); err != nil {
			return err
		}
		queue = e.t.Children(v, queue)
	}
	for _, s := range queue[want:] {
		c := e.newComp()
		c.size = e.sub[s]
		c.anchors = append(c.anchors, s)
		e.settle(c, append(e.charSet[:0], bitstr.Root()))
	}
	e.flood = queue[:0]
	return nil
}

// computeWeights returns, for every host vertex on levels 0..maxLevel, the
// total number of guest nodes laid on or attached below it (the |A_i(a)| of
// the paper).  Indexed by heap id; the slice is the embedder's reusable
// buffer.  At the start of round i every component is attached on a level
// ≤ i−1, so the incremental attachLoad array covers exactly the comps the
// old per-comp scan found.
func (e *embedder) computeWeights(maxLevel int) []int64 {
	n := bitstr.NumVertices(maxLevel)
	w := e.wbuf[:n]
	for id := int64(0); id < n; id++ {
		w[id] = int64(e.loads[id]) + e.attachLoad[id]
	}
	for id := n - 1; id >= 1; id-- {
		w[bitstr.FromID(id).Parent().ID()] += w[id]
	}
	return w
}

// shiftChain adds delta to the weights of from and all its ancestors down
// to (and including) topLevel.
func shiftChain(w []int64, from bitstr.Addr, topLevel int, delta int64) {
	for v := from; ; v = v.Parent() {
		w[v.ID()] += delta
		if v.Level <= topLevel {
			return
		}
	}
}

// adjustPair is the procedure ADJUST(α0, α1, i): it halves the imbalance
// between the subtrees of α0 and α1 by moving components (or lemma-2
// pieces of components) attached at the boundary leaf of the heavier side
// across the horizontal edge between the two new boundary leaves.
func (e *embedder) adjustPair(alpha bitstr.Addr, i int, w []int64) error {
	a0, a1 := alpha.Child(0), alpha.Child(1)
	D := w[a0.ID()] - w[a1.ID()]
	if D == 0 {
		return nil
	}
	ones := i - 2 - alpha.Level
	var uD, uT, wD, wT bitstr.Addr
	if D > 0 {
		uD = a0.AppendOnes(ones)
		uT = a1.AppendZeros(ones)
		wD = uD.Child(1)
		wT = uT.Child(0)
	} else {
		D = -D
		uD = a1.AppendZeros(ones)
		uT = a0.AppendOnes(ones)
		wD = uD.Child(0)
		wT = uT.Child(1)
	}
	delta := int((D + 1) / 2)
	wDID, wTID := wD.ID(), wT.ID()
	budD, budT := e.budgetAt(wDID), e.budgetAt(wTID)
	moved, err := e.levelPair(uD, delta, wD, wT, &budD, &budT)
	if err != nil {
		return err
	}
	e.setBudget(wDID, budD)
	e.setBudget(wTID, budT)
	if left := delta - moved; left > separator.Lemma2Bound(delta) {
		e.stats.AdjustResidual += left
	}
	if moved != 0 {
		d := int64(moved)
		shiftChain(w, uD, alpha.Level+1, -d)
		shiftChain(w, uT, alpha.Level+1, +d)
	}
	return nil
}

// levelPair moves ≈delta guest nodes from the components attached at
// `from` (the donor side) onto the receiver side: separator nodes of the
// staying part are laid on wD, of the moving part on wT.  budD and budT
// bound how many nodes may be laid on each.  Returns the moved mass.
//
// The strategy mirrors the proof of Theorem 1: if a whole component is
// within the lemma-2 tolerance of the remaining target, move it whole
// (paper case |I1|+|I2| ≥ 4Δ/3 with a large I1); otherwise split the
// smallest sufficiently large component with Lemma 2 (paper case |T| ≥ Δ);
// otherwise move whole components largest-first and retry.  The donor is
// re-queried after every action so freshly split remnants can be refined
// further while the placement budget lasts.  Each query walks the donor's
// attachment list in place: the scans pick a component before any action
// changes the list.
func (e *embedder) levelPair(from bitstr.Addr, delta int, wD, wT bitstr.Addr, budD, budT *int) (int, error) {
	moved := 0
	id := from.ID()
	for {
		rem := delta - moved
		tol := separator.Lemma2Bound(rem)
		if rem <= tol {
			return moved, nil
		}
		// (a) a whole component close to the remaining target.
		var exact *comp
		bestDev := tol + 1
		for c := e.attachHead[id]; c != nil; c = c.next {
			if len(c.anchors) > *budT {
				continue
			}
			dev := int(c.size) - rem
			if dev < 0 {
				dev = -dev
			}
			if dev < bestDev {
				bestDev, exact = dev, c
			}
		}
		if exact != nil {
			laid, err := e.moveCompWhole(exact, wT)
			if err != nil {
				return moved, err
			}
			*budT -= laid
			moved += int(exact.size)
			continue
		}
		// (b) split the smallest component that can cover the target.
		var big *comp
		for c := e.attachHead[id]; c != nil; c = c.next {
			if int(c.size) >= rem && (big == nil || c.size < big.size) {
				big = c
			}
		}
		if big != nil {
			sp, err := e.splitSizes(big, rem, wT.Level)
			if err == nil && len(sp.S1) <= *budD && len(sp.S2) <= *budT {
				if err := e.applySplit(big, sp, wD, wT); err != nil {
					return moved, err
				}
				*budD -= len(sp.S1)
				*budT -= len(sp.S2)
				moved += len(sp.Part2)
				continue
			}
		}
		// (c) move the largest smaller component whole and retry.
		var part *comp
		for c := e.attachHead[id]; c != nil; c = c.next {
			if int(c.size) >= rem || len(c.anchors) > *budT {
				continue
			}
			if part == nil || c.size > part.size {
				part = c
			}
		}
		if part == nil {
			return moved, nil // nothing more can move within budget
		}
		laid, err := e.moveCompWhole(part, wT)
		if err != nil {
			return moved, err
		}
		*budT -= laid
		moved += int(part.size)
	}
}

// split is the procedure SPLIT(α, i): distribute the components attached
// to α between the new leaves α0 and α1, laying the designated nodes whose
// neighbors sit on level i−2 (they are due now by condition (4)), level the
// two sides with one more lemma-2 split across the horizontal edge
// {α0, α1}, and fill both leaves up to 16 nodes.
func (e *embedder) split(alpha bitstr.Addr, i int) error {
	w0, w1 := alpha.Child(0), alpha.Child(1)
	tot0 := int64(e.loads[w0.ID()]) + e.attachLoad[w0.ID()]
	tot1 := int64(e.loads[w1.ID()]) + e.attachLoad[w1.ID()]
	// Greedy balanced assignment, big components first (the M0/M1 pairing
	// of the paper achieves the same Δ ≤ max interval bound).
	assign := e.appendAttached(e.assign[:0], alpha.ID())
	e.assign = assign
	slices.SortFunc(assign, func(a, b *comp) int {
		if a.size != b.size {
			return cmp.Compare(b.size, a.size)
		}
		return cmp.Compare(a.rank, b.rank)
	})
	for _, c := range assign {
		side, other := w0, w1
		if tot0 > tot1 {
			side, other = w1, w0
		}
		if !alpha.IsRoot() && c.char.Level == alpha.Level-1 {
			// Class P: the designated nodes are due now; avoid
			// overfilling a vertex when the sibling still has room.
			if e.free(side) < len(c.anchors) && e.free(other) >= len(c.anchors) {
				side, other = other, side
			}
			if _, err := e.moveCompWhole(c, side); err != nil {
				return err
			}
		} else {
			e.reattach(c, side)
		}
		if side == w0 {
			tot0 += int64(c.size)
		} else {
			tot1 += int64(c.size)
		}
	}
	// Leveling across the horizontal edge {α0, α1} with the free places.
	heavy, light := w0, w1
	diff := tot0 - tot1
	if diff < 0 {
		heavy, light = w1, w0
		diff = -diff
	}
	if delta := int((diff + 1) / 2); delta > 0 && !e.opts.DisableLeveling {
		budD, budT := e.free(heavy), e.free(light)
		if budD < 0 {
			budD = 0
		}
		if budT < 0 {
			budT = 0
		}
		if _, err := e.levelPair(heavy, delta, heavy, light, &budD, &budT); err != nil {
			return err
		}
	}
	if err := e.fillUp(w0); err != nil {
		return err
	}
	return e.fillUp(w1)
}

// fillUp lays nodes on w until it holds 16, taking anchors of components
// attached at w ("nodes attached to a0 which are not laid out so far but
// have at least one neighbour laid out already").  Only placements that
// cannot create a component with anchors on two different host vertices
// are taken; if none remain the deficit is recorded and the final pass
// resolves it.  Each pick walks w's attachment list in place: the list
// changes only after the pick, and the next pick walks it afresh.
func (e *embedder) fillUp(w bitstr.Addr) error {
	id := w.ID()
	for e.free(w) > 0 {
		var chosen *comp
		layAll := false
		for c := e.attachHead[id]; c != nil; c = c.next {
			safeOne := len(c.anchors) == 1 || c.char == w
			safeAll := len(c.anchors) <= e.free(w)
			if !safeOne && !safeAll {
				continue
			}
			if chosen == nil || c.size > chosen.size {
				chosen = c
				layAll = !safeOne
			}
		}
		if chosen == nil {
			// Count the slots this vertex is left short of 16; on
			// exact theorem instances a clean run keeps this at 0
			// for all but the last level (slack instances always
			// leave some).
			e.stats.FillDeficits += e.free(w)
			return nil
		}
		if layAll {
			if _, err := e.moveCompWhole(chosen, w); err != nil {
				return err
			}
		} else {
			a := chosen.anchors[0]
			if err := e.layNode(a, w); err != nil {
				return err
			}
			e.pref1, e.pref2 = w, w
			e.laidBuf = append(e.laidBuf[:0], a)
			e.rebuild(chosen, e.laidBuf)
		}
	}
	return nil
}

// recordImbalance logs the sibling half-differences after round i — the
// measured A(j,i) of §2(iii) — both as the per-round maximum and as the
// per-parent-level row of the imbalance matrix.  Costs one extra
// computeWeights pass per round, so it only runs under
// Options.ImbalanceStats.
func (e *embedder) recordImbalance(i int) {
	w := e.computeWeights(i)
	if cap(e.perLevelBuf) < i {
		e.perLevelBuf = make([]int64, i)
	}
	perLevel := e.perLevelBuf[:i] // parent level j = 0..i-1
	for j := range perLevel {
		perLevel[j] = 0
	}
	for id := int64(1); id < int64(len(w)); id += 2 {
		d := w[id] - w[id+1]
		if d < 0 {
			d = -d
		}
		j := bitstr.FromID(id).Level - 1
		if d > perLevel[j] {
			perLevel[j] = d
		}
	}
	row := make([]int, i)
	max := 0
	for j, d := range perLevel {
		row[j] = int((d + 1) / 2)
		if row[j] > max {
			max = row[j]
		}
	}
	e.stats.MaxImbalance = append(e.stats.MaxImbalance, max)
	e.stats.ImbalanceMatrix = append(e.stats.ImbalanceMatrix, row)
}

// finalPass lays every remaining node: anchors are placed on free vertices
// inside the N-neighborhood of their characteristic address, falling back
// to the nearest free vertex when none remains (counted, since it can cost
// dilation).  This realizes the paper's closing rearrangement "distribute
// the nodes not laid out so far to free places among the leaves".
//
// The worklist is a FIFO seeded with the live components in creation
// (rank) order and extended by registerComp as rebuilds spawn remnants,
// so the pass runs in one sweep with no per-sweep allocation.  Comp
// structs are not recycled while the queue holds pointers.
func (e *embedder) finalPass() error {
	q := e.finalQ[:0]
	for id := range e.attachHead {
		q = e.appendAttached(q, int64(id))
	}
	slices.SortFunc(q, func(a, b *comp) int { return cmp.Compare(a.rank, b.rank) })
	e.finalQ = q
	e.collecting = true
	defer func() { e.collecting = false }()
	for head := 0; head < len(e.finalQ); head++ {
		c := e.finalQ[head]
		if !c.alive {
			continue
		}
		a := c.anchors[0]
		target, fallback := e.findSlotFor(a)
		if fallback {
			e.stats.FinalFallbacks++
		}
		if err := e.layNode(a, target); err != nil {
			return err
		}
		e.pref1, e.pref2 = target, target
		e.laidBuf = append(e.laidBuf[:0], a)
		e.rebuild(c, e.laidBuf)
	}
	return nil
}

// findSlotFor picks a host vertex with a free slot for the given anchor:
// preferably one compatible with condition (3′) against every laid
// neighbor, otherwise (fallback=true) the nearest free vertex.  Serial
// only (final pass); all buffers live on the embedder.
func (e *embedder) findSlotFor(v int32) (bitstr.Addr, bool) {
	hosts := e.hostsBuf[:0]
	e.nbuf = e.t.Neighbors(v, e.nbuf[:0])
	for _, u := range e.nbuf {
		if e.laid[u] {
			hosts = append(hosts, e.hostOf[u])
		}
	}
	if len(hosts) == 0 {
		hosts = append(hosts, bitstr.Root())
	}
	e.hostsBuf = hosts
	base := hosts[0]
	// Candidates: both directions of the N-relation around the anchor's
	// characteristic address.
	cand := e.x.AppendNSet(base, e.candBuf[:0])
	cand = e.x.AppendReverseN(base, cand)
	e.candBuf = cand
	best := bitstr.Addr{Level: -1}
	bestDist := 1 << 30
	for _, h := range cand {
		if e.free(h) <= 0 {
			continue
		}
		ok := true
		for _, b := range hosts {
			if !e.cond3OK(b, h) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		// Candidates come from N(base) and its reverse, so d ≤ 3
		// (Figure 2).
		d := e.x.Distance(base, h)
		if d < bestDist || (d == bestDist && h.Level > best.Level) {
			best, bestDist = h, d
		}
	}
	if best.Level >= 0 {
		return best, false
	}
	// Fallback: nearest free vertex by BFS over the X-tree, with an
	// epoch-stamped visited array instead of a per-call map.
	e.bfsSeenCur++
	gen := e.bfsSeenCur
	e.bfsSeen[base.ID()] = gen
	queue := append(e.bfsQueue[:0], base)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		if e.free(u) > 0 {
			e.bfsQueue = queue
			return u, true
		}
		e.xnbuf = e.x.Neighbors(u, e.xnbuf[:0])
		for _, nb := range e.xnbuf {
			if id := nb.ID(); e.bfsSeen[id] != gen {
				e.bfsSeen[id] = gen
				queue = append(queue, nb)
			}
		}
	}
	e.bfsQueue = queue
	// Capacity guarantees a free slot exists; unreachable.
	return base, true
}
