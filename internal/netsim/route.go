package netsim

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"xtreesim/internal/bitstr"
	"xtreesim/internal/graph"
	"xtreesim/internal/xtree"
)

// OnXTree is the run config of a guest placed on the X-tree machine x by
// assign (guest node -> X-tree address), the shape of core.Result and
// baseline.Result.  Every X-tree run is built here, so three decisions
// are made once: the host's vertex ids are the heap ids of x.AsGraph;
// messages route by XTree.NextHopID, which computes each hop from the
// closed-form X-tree distance, picks the hop BuildNextHopTables would on
// every pair, keeps no table and so serves any height; and the Host is
// built once per process and height, with the link numbering every run
// on it uses, and shared by every config of that height.  The Host is
// read-only.  Callers add MaxCycles, Faults and Observers to the returned
// Config.
func OnXTree(x *xtree.XTree, assign []bitstr.Addr) Config {
	place := make([]int32, len(assign))
	for i, a := range assign {
		place[i] = int32(a.ID())
	}
	return Config{Host: xtreeHostOf(x.Height()).graph, Place: place, NextHop: func(cur, dst int32) int32 {
		return int32(x.NextHopID(int64(cur), int64(dst)))
	}}
}

// xtreeHost is what every run on one X-tree height shares read-only: the
// host graph of OnXTree's configs and its edge ranker.
type xtreeHost struct {
	graph *graph.Graph
	links *edgeRanker
}

// xtreeHosts holds each height's xtreeHost, built on first use and kept
// for the process.  A server that caps its guests at 131,072 nodes
// reaches X(13) at most, a few MB over every height.
var xtreeHosts [bitstr.MaxLevel + 1]struct {
	once sync.Once
	host atomic.Pointer[xtreeHost]
}

// xtreeHostOf returns the shared host state of X(height).
func xtreeHostOf(height int) *xtreeHost {
	e := &xtreeHosts[height]
	e.once.Do(func() {
		g := xtree.New(height).AsGraph()
		e.host.Store(&xtreeHost{graph: g, links: newEdgeRanker(g)})
	})
	return e.host.Load()
}

// sharedLinks returns the edge ranker of host when host is the shared
// graph of an X-tree height, and nil otherwise.
func sharedLinks(host *graph.Graph) *edgeRanker {
	size := uint64(host.N()) + 1 // 2^(h+1) on X(h)
	h := bits.TrailingZeros64(size) - 1
	if size&(size-1) != 0 || h < 0 {
		return nil
	}
	if x := xtreeHosts[h].host.Load(); x != nil && x.graph == host {
		return x.links
	}
	return nil
}

// router returns the hop function a run on host routes by: next when the
// caller passes one (OnXTree does); a table-free tree router when host is
// a tree (connected, with N−1 edges); and otherwise a lookup into
// BuildNextHopTables, the only case MaxHostVertices bounds.  A tree has one
// path between any two vertices, so the tree router returns exactly the
// tables' hop and a run routed either way is identical.
func router(host *graph.Graph, next func(cur, dst int32) int32) (func(cur, dst int32) int32, error) {
	if next != nil {
		return next, nil
	}
	if t := newTreeRouter(host); t != nil {
		return t.next, nil
	}
	if host.N() > MaxHostVertices {
		return nil, fmt.Errorf("netsim: host has %d vertices, limit %d (pass a NextHop router to lift it)", host.N(), MaxHostVertices)
	}
	tables := BuildNextHopTables(host)
	return func(cur, dst int32) int32 { return tables[dst][cur] }, nil
}

// edgeRanker numbers the host's directed links in one deterministic
// enumeration: tail vertices ascending, heads ascending within a tail.  A
// link's rank is the Edge of its HopInfo, the index of its queue and
// counters, and the order key by which the coordinator merges its shards'
// reports into the run's event order.
type edgeRanker struct {
	base []int      // base[u] = rank of u's first outgoing link; base[N] = link count
	adj  [][]int32  // sorted neighbor lists (the host's own when presorted)
	ends [][2]int32 // tail and head of every link, by rank
}

func newEdgeRanker(host *graph.Graph) *edgeRanker {
	n := host.N()
	r := &edgeRanker{base: make([]int, n+1), adj: make([][]int32, n), ends: make([][2]int32, 0, 2*host.M())}
	for u := 0; u < n; u++ {
		r.base[u] = len(r.ends)
		ns := host.Neighbors(u)
		if !slices.IsSorted(ns) {
			ns = slices.Clone(ns)
			slices.Sort(ns)
		}
		r.adj[u] = ns
		for _, v := range ns {
			r.ends = append(r.ends, [2]int32{int32(u), v})
		}
	}
	r.base[n] = len(r.ends)
	return r
}

// rank returns the rank of the link u→v, or -1 when the host has no such
// link.
func (r *edgeRanker) rank(u, v int32) int {
	if i, ok := slices.BinarySearch(r.adj[u], v); ok {
		return r.base[u] + i
	}
	return -1
}

// hopper picks the link a message leaves a vertex by.  Every message is
// routed through one: the run's own for admissions and retransmissions,
// each shard's for the forwards at its vertices.
type hopper struct {
	next     func(cur, dst int32) int32 // from router
	links    *edgeRanker
	faults   *faultState // the holder's kill replica; nil on a fault-free run
	reroutes *int        // counts diversions around dead links or vertices
}

// link returns the rank of the link m leaves at by.  Under an active fault
// plan a preferred hop that crosses a dead link (or enters a dead vertex)
// falls back to routing on the alive graph, which m then keeps, and link
// returns -1 when no alive route is left; without one, a missing route is
// an error.
func (h *hopper) link(at int32, m *message) (int, error) {
	var nh int32
	if m.Rerouted {
		// Once diverted, stay on alive-graph routing: mixing it with
		// the preferred route could bounce a message between a detour
		// and a route through the dead link forever.
		nh = h.faults.next(at, m.DstHost)
	} else {
		nh = h.next(at, m.DstHost)
		if h.faults != nil && nh >= 0 && h.faults.blocked(at, nh) {
			nh = h.faults.next(at, m.DstHost)
			if nh >= 0 {
				*h.reroutes++
				m.Rerouted = true
			}
		}
	}
	if nh < 0 {
		if h.faults != nil {
			return -1, nil
		}
		return -1, fmt.Errorf("netsim: no route from %d to %d", at, m.DstHost)
	}
	e := h.links.rank(at, nh)
	if e < 0 {
		return -1, fmt.Errorf("netsim: missing edge %d->%d", at, nh)
	}
	return e, nil
}

// BuildNextHopTables precomputes shortest-path routing for the host by one
// BFS per destination: tables[dst][cur] is the neighbor of cur on a
// shortest path toward dst, or -1 when unreachable.  The rows share one
// V×V backing array.  A run builds them once for a host that is neither a
// tree nor given a NextHop, and shares them read-only across every shard.
func BuildNextHopTables(host *graph.Graph) [][]int32 {
	n := host.N()
	flat := make([]int32, n*n)
	tables := make([][]int32, n)
	queue := make([]int32, 0, n)
	for dst := 0; dst < n; dst++ {
		tables[dst] = flat[dst*n : (dst+1)*n : (dst+1)*n]
		queue = nextHopRow(host, int32(dst), tables[dst], queue, nil)
	}
	return tables
}

// nextHopRow fills row by one BFS from dst: row[v] is the neighbor of v on
// a shortest path toward dst, or -1 when none is left.  blocked, when
// non-nil, bars the hops it reports; a message would travel v→u, so that
// is the direction it is asked about.  Neighbors are visited in the host's
// order, so a row depends on nothing else.  queue is scratch space,
// returned for reuse.
func nextHopRow(host *graph.Graph, dst int32, row, queue []int32, blocked func(v, u int32) bool) []int32 {
	for i := range row {
		row[i] = -1
	}
	row[dst] = dst
	queue = append(queue[:0], dst)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range host.Neighbors(int(u)) {
			if row[v] >= 0 || (blocked != nil && blocked(v, u)) {
				continue
			}
			row[v] = u // next hop from v toward dst is u
			queue = append(queue, v)
		}
	}
	return queue
}

// treeRouter routes on a tree in O(V) memory.  Rooted at vertex 0 and
// numbered in preorder, the subtree of v holds exactly the numbers
// pre[v]..last[v], so dst lies below cur iff pre[dst] falls in cur's
// interval; the hop is then the child whose interval holds it, and
// otherwise cur's parent.
type treeRouter struct {
	parent []int32 // -1 at the root
	pre    []int32 // preorder number
	last   []int32 // largest preorder number in the subtree
	order  []int32 // vertex by preorder number
}

// newTreeRouter returns the router for host, or nil when host is not a
// tree.
func newTreeRouter(host *graph.Graph) *treeRouter {
	n := host.N()
	if n == 0 || host.M() != n-1 {
		return nil
	}
	t := &treeRouter{parent: make([]int32, n), pre: make([]int32, n), last: make([]int32, n),
		order: make([]int32, 0, n)}
	for i := range t.pre {
		t.pre[i] = -1
	}
	t.parent[0] = -1
	// Popping a vertex numbers it and pushes its children, which are all
	// numbered before anything beneath them on the stack: every subtree
	// gets a contiguous range.  A vertex popped twice closes a cycle.
	stack := []int32{0}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if t.pre[v] >= 0 {
			return nil
		}
		t.pre[v] = int32(len(t.order))
		t.order = append(t.order, v)
		for _, u := range host.Neighbors(int(v)) {
			if u != t.parent[v] {
				t.parent[u] = v
				stack = append(stack, u)
			}
		}
	}
	if len(t.order) < n {
		return nil // disconnected
	}
	// Descendants come later in preorder, so a reverse sweep closes every
	// subtree's interval before its parent reads it.
	for v := range t.last {
		t.last[v] = t.pre[v]
	}
	for i := n - 1; i > 0; i-- {
		v := t.order[i]
		p := t.parent[v]
		t.last[p] = max(t.last[p], t.last[v])
	}
	return t
}

func (t *treeRouter) next(cur, dst int32) int32 {
	if cur == dst {
		return dst
	}
	p := t.pre[dst]
	if p < t.pre[cur] || p > t.last[cur] {
		return t.parent[cur]
	}
	// dst lies below cur.  The children's intervals tile cur's, the first
	// starting right after cur: step across them until one reaches p.
	c := t.order[t.pre[cur]+1]
	for t.last[c] < p {
		c = t.order[t.last[c]+1]
	}
	return c
}
