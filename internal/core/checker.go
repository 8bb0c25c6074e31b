package core

import (
	"fmt"

	"xtreesim/internal/bintree"
)

// CheckInvariants independently re-verifies a finished embedding, without
// reusing any of the embedder's bookkeeping:
//
//   - every guest node sits on a vertex of the host;
//   - no vertex carries more than LoadTarget nodes, and on exact theorem
//     sizes (n = 16·(2^(r+1)−1)) every vertex carries exactly 16;
//   - condition (3′) holds for every guest edge: the deeper endpoint's
//     vertex lies in the N-neighborhood (Figure 2) of the shallower
//     endpoint's vertex, which implies dilation ≤ 3.
//
// It is the second, independent implementation of the paper's conditions,
// used by the tests to cross-check the embedder's own accounting.
func CheckInvariants(res *Result) error {
	n := res.Guest.N()
	if len(res.Assignment) != n {
		return fmt.Errorf("core: assignment covers %d of %d nodes", len(res.Assignment), n)
	}
	loads := map[int64]int{}
	for v, a := range res.Assignment {
		if !res.Host.Contains(a) {
			return fmt.Errorf("core: node %d on %v outside X(%d)", v, a, res.Host.Height())
		}
		loads[a.ID()]++
	}
	for id, l := range loads {
		if l > LoadTarget {
			return fmt.Errorf("core: vertex id %d carries %d > %d nodes", id, l, LoadTarget)
		}
	}
	if int64(n) == Capacity(res.Host.Height()) {
		if int64(len(loads)) != res.Host.NumVertices() {
			return fmt.Errorf("core: only %d of %d vertices used on an exact instance",
				len(loads), res.Host.NumVertices())
		}
		for id, l := range loads {
			if l != LoadTarget {
				return fmt.Errorf("core: vertex id %d carries %d ≠ 16 on an exact instance", id, l)
			}
		}
	}
	for v := int32(0); v < int32(n); v++ {
		p := res.Guest.Parent(v)
		if p == bintree.None {
			continue
		}
		a, b := res.Assignment[p], res.Assignment[v]
		if a.Level > b.Level {
			a, b = b, a
		}
		if !res.Host.InN(a, b) {
			return fmt.Errorf("core: edge %d-%d maps to %v-%v outside the N-relation",
				p, v, res.Assignment[p], res.Assignment[v])
		}
	}
	return nil
}

// checkAttachIdx verifies the attachment index invariant the eager
// bookkeeping maintains: every listed comp is alive, attached at the
// vertex whose list holds it and linked back to its predecessor,
// attachLoad mirrors the attached mass exactly, and — when final is set,
// i.e. after the final pass — both structures are completely drained.
// run() calls this at the end of every embed so a regression fails
// loudly.
func (e *embedder) checkAttachIdx(final bool) error {
	for id := range e.attachHead {
		var sum int64
		var prev *comp
		for c := e.attachHead[id]; c != nil; prev, c = c, c.next {
			if !c.alive {
				return fmt.Errorf("core: dead component indexed at vertex id %d", id)
			}
			if c.attach.ID() != int64(id) {
				return fmt.Errorf("core: component %d indexed at vertex id %d but attached at %v",
					c.rank, id, c.attach)
			}
			if c.prev != prev {
				return fmt.Errorf("core: component %d at vertex id %d is mislinked", c.rank, id)
			}
			sum += int64(c.size)
		}
		if prev != e.attachTail[id] {
			return fmt.Errorf("core: list at vertex id %d does not end at its tail", id)
		}
		if sum != e.attachLoad[id] {
			return fmt.Errorf("core: attachLoad[%d] = %d, want %d", id, e.attachLoad[id], sum)
		}
		if final && e.attachHead[id] != nil {
			return fmt.Errorf("core: components still attached at vertex id %d after the final pass", id)
		}
	}
	return nil
}
