package xtree

import "xtreesim/internal/bitstr"

// NextHop returns the neighbor of cur that lies on a shortest path to dst
// (cur must differ from dst).  Ties break deterministically by the
// Neighbors enumeration order.  Because the distance oracle is exact, the
// greedy step always makes progress, so iterating NextHop routes any pair
// along a shortest path without routing tables.
func (x *XTree) NextHop(cur, dst bitstr.Addr) bitstr.Addr {
	if cur == dst {
		return cur
	}
	var buf [5]bitstr.Addr
	nbrs := x.Neighbors(cur, buf[:0])
	best := nbrs[0]
	bestD := x.Distance(nbrs[0], dst)
	for _, nb := range nbrs[1:] {
		if d := x.Distance(nb, dst); d < bestD {
			best, bestD = nb, d
		}
	}
	return best
}

// NextHopID is NextHop in dense vertex ids (bitstr heap numbering), the
// shape of a netsim next-hop function.  It keeps no state, so it is safe
// for concurrent use.
func (x *XTree) NextHopID(cur, dst int64) int64 {
	return x.NextHop(bitstr.FromID(cur), bitstr.FromID(dst)).ID()
}
