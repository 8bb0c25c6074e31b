// Package netsim is a synchronous message-passing network simulator: the
// substrate on which the embedding's promise is actually demonstrated.
//
// The paper's motivation (§1) is that an X-tree parallel machine can
// simulate programs written for a binary-tree machine with constant
// slowdown, because the embedding keeps formerly adjacent processors
// within 3 hops.  No such machine exists to measure, so this package
// simulates one: vertices are processors, edges are full-duplex links that
// move one message per direction per cycle (store-and-forward routing
// along shortest paths), guest processes are pinned to host vertices by an
// embedding, and tree-shaped workloads (divide-and-conquer, broadcast,
// reduction waves) run to completion.  Messages between co-located guests
// pass through memory in one cycle without using links.  The measured
// makespan ratio between the host and the ideal guest machine is the
// slowdown the dilation actually induces.
//
// The one-hop-per-cycle discipline is the model invariant everything
// rests on: if a message could cross two links in one cycle, dilation
// would no longer bound the slowdown and every measured ratio would be
// fiction.  Observer hooks (observer.go) make the discipline checkable —
// LinkAudit re-verifies it every cycle — and export per-event traces and
// per-cycle time series without perturbing the simulation.
package netsim

import (
	"context"
	"fmt"
	"sort"

	"xtreesim/internal/graph"
)

// MaxHostVertices bounds the routing-table size (V² next-hop entries).
const MaxHostVertices = 4096

// Event is a guest-level message between two guest processes.
type Event struct {
	From, To int32
	Kind     int32
	Payload  int64
}

// Workload drives the guest processes.  Implementations must be
// deterministic: the simulator delivers messages in a fixed order.
type Workload interface {
	// Init emits the initial events (e.g. the root spawning tasks).
	Init(emit func(Event))
	// OnMessage handles the delivery of ev at guest process ev.To.
	OnMessage(ev Event, emit func(Event))
	// Done reports whether the workload has logically completed.
	Done() bool
}

// Config describes one simulation run.
type Config struct {
	Host      *graph.Graph
	Place     []int32 // guest process -> host vertex
	MaxCycles int     // safety cap; 0 means 1<<20
	// NextHop, when non-nil, replaces the precomputed routing tables:
	// it must return a neighbor of cur strictly closer to dst.  With a
	// table-free router (e.g. XTree.NextHopID, which computes each hop
	// from the closed-form X-tree distance) this lifts the
	// MaxHostVertices cap, which only bounds the V² table memory.
	NextHop func(cur, dst int32) int32
	// Faults, when non-nil and active, injects deterministic failures
	// (link/vertex kills, drops, corruption) and enables the
	// ack/retransmission delivery layer.  A nil or inert plan leaves
	// the simulator behavior byte-identical to a run without one.
	Faults *FaultPlan
	// Observers receive per-cycle and per-event callbacks (see
	// Observer).  An empty list costs nothing on the hot path.
	Observers []Observer
	// Partitions requests a sharded run.  The single-process runner
	// cannot honor it: Run and RunContext reject any value above 1 so a
	// partitioned config is never silently simulated on one goroutine.
	// Use the distsim runner (or xtreesim.WithPartitions) instead.
	Partitions int
}

// Result summarizes a run.
type Result struct {
	Cycles      int // makespan until quiescence
	Delivered   int // guest messages delivered
	HopsTotal   int // link traversals consumed
	MaxLinkLoad int // heaviest total traffic on one directed link
	MaxQueue    int // longest link backlog observed (sampled at enqueue time)
	// Per-message latency (emit to delivery, in cycles): median, 99th
	// percentile and maximum.  Makespan hides queuing tails; these
	// don't.
	LatencyP50 int
	LatencyP99 int
	LatencyMax int
	// Fault-injection counters, all zero unless Config.Faults is active.
	Drops       int // messages lost in flight (random drops + kill casualties)
	Corruptions int // payloads corrupted in flight (detected and discarded at delivery)
	Retransmits int // retransmissions actually re-sent by the delivery layer
	Reroutes    int // next-hop diversions around dead links or vertices
	Unreachable int // messages abandoned: retries exhausted, or no alive route
}

type message struct {
	ev      Event
	seq     int64 // emission number; identifies the message across hops and retries
	srcHost int32 // retransmissions restart here
	dstHost int32
	sentAt  int

	// Fault-layer state; all zero on a fault-free run.
	attempts int  // retransmissions so far
	corrupt  bool // payload mangled in flight, fails the delivery checksum
	rerouted bool // left its preferred route; stays on alive-graph routing
}

// linkQueue is a FIFO of messages on one directed link.  Popping advances
// a head index instead of reslicing, and the live tail is copied down once
// the dead prefix dominates, so the backing array is bounded by the peak
// backlog instead of growing with the link's total lifetime traffic.
type linkQueue struct {
	buf  []message
	head int
}

func (q *linkQueue) length() int { return len(q.buf) - q.head }

func (q *linkQueue) push(m message) { q.buf = append(q.buf, m) }

func (q *linkQueue) pop() message {
	m := q.buf[q.head]
	q.head++
	if q.head >= 16 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return m
}

// live returns the queued messages in FIFO order; reset empties the queue
// keeping the backing array.
func (q *linkQueue) live() []message { return q.buf[q.head:] }

func (q *linkQueue) reset() {
	q.buf = q.buf[:0]
	q.head = 0
}

type sim struct {
	host    *graph.Graph
	place   []int32
	wl      Workload
	nextHop [][]int32                  // nextHop[dst][cur] = neighbor of cur toward dst
	hopFn   func(cur, dst int32) int32 // overrides the tables when non-nil

	edges     [][2]int32 // directed edges in deterministic order
	edgeIndex map[int64]int
	queues    []linkQueue // per directed edge, FIFO
	active    []int       // scratch: links busy at the start of the cycle
	traffic   []int       // total messages ever moved per edge
	local     [][]message // per-vertex memory queues

	inflight    int
	emitted     int64 // guest events accepted so far; doubles as the next seq
	queuedLinks int   // messages sitting on link queues right now
	queuedLocal int   // messages sitting in memory queues right now
	now         int   // current cycle
	latencies   []int // per delivered message, in cycles
	res         Result

	obs    Observer    // nil when no observers are attached
	faults *faultState // nil on a fault-free run
	retx   []retx      // messages parked for retransmission
}

// Run simulates the workload on the host with the given placement until
// quiescence (no messages in flight) or the cycle cap.  A run that goes
// quiescent before the workload reports Done is a deadlock and errors.
func Run(cfg Config, wl Workload) (Result, error) {
	return RunContext(context.Background(), cfg, wl)
}

// RunContext is Run with cancellation: the context is polled once per
// simulated cycle, so a cancelled run stops within one cycle and returns
// ctx.Err() together with the statistics accumulated so far.
func RunContext(ctx context.Context, cfg Config, wl Workload) (Result, error) {
	if cfg.Host == nil || len(cfg.Place) == 0 {
		return Result{}, fmt.Errorf("netsim: empty host or placement")
	}
	if cfg.NextHop == nil && cfg.Host.N() > MaxHostVertices {
		return Result{}, fmt.Errorf("netsim: host has %d vertices, limit %d (pass a NextHop router to lift it)", cfg.Host.N(), MaxHostVertices)
	}
	for p, h := range cfg.Place {
		if h < 0 || int(h) >= cfg.Host.N() {
			return Result{}, fmt.Errorf("netsim: process %d placed on invalid vertex %d", p, h)
		}
	}
	if cfg.Partitions > 1 {
		return Result{}, fmt.Errorf("netsim: Config.Partitions=%d: the single-process runner cannot shard; use the distsim runner (xtreesim.WithPartitions)", cfg.Partitions)
	}
	maxCycles := cfg.MaxCycles
	if maxCycles <= 0 {
		maxCycles = 1 << 20
	}
	s := &sim{host: cfg.Host, place: cfg.Place, wl: wl, hopFn: cfg.NextHop,
		obs: combineObservers(cfg.Observers)}
	if cfg.Faults != nil {
		fs, err := newFaultState(cfg.Faults, cfg.Host)
		if err != nil {
			return Result{}, err
		}
		s.faults = fs // nil when the plan is inert
	}
	if s.hopFn == nil {
		s.buildRouting()
	}
	s.buildEdges()
	s.local = make([][]message, cfg.Host.N())
	if s.faults != nil {
		s.applyKills() // kills scheduled at cycle ≤ 0 are dead from the start
	}

	var pending []Event
	emit := func(ev Event) { pending = append(pending, ev) }
	wl.Init(emit)
	if err := s.route(pending); err != nil {
		return s.res, err
	}

	for cycle := 1; cycle <= maxCycles; cycle++ {
		select {
		case <-ctx.Done():
			s.res.Cycles = cycle - 1
			s.finishStats()
			return s.res, ctx.Err()
		default:
		}
		s.now = cycle
		if s.faults != nil {
			s.applyKills()
			if err := s.releaseRetx(); err != nil {
				return s.res, err
			}
		}
		if s.inflight == 0 {
			s.res.Cycles = cycle - 1
			s.finishStats()
			if !s.wl.Done() {
				if s.res.Unreachable > 0 {
					return s.res, fmt.Errorf("netsim: quiescent after %d cycles but workload not done (%d messages unreachable under faults)", cycle-1, s.res.Unreachable)
				}
				return s.res, fmt.Errorf("netsim: quiescent after %d cycles but workload not done", cycle-1)
			}
			return s.res, nil
		}
		if s.obs != nil {
			s.obs.OnCycleStart(CycleInfo{
				Cycle:       cycle,
				Links:       len(s.edges),
				Inflight:    s.inflight,
				Emitted:     s.emitted,
				Delivered:   s.res.Delivered,
				Unreachable: s.res.Unreachable,
				QueuedLinks: s.queuedLinks,
				QueuedLocal: s.queuedLocal,
				Parked:      len(s.retx),
			})
		}
		// Phase 1: every link that was busy at the start of the cycle
		// moves exactly one message — its head as of the cycle start —
		// and all memory queues drain.  The busy set is snapshotted
		// first: a message forwarded onto a later-indexed queue this
		// cycle must NOT move again until the next cycle, or a message
		// on an ascending route would cross several links per cycle and
		// dilation would no longer bound the slowdown.
		var arrived []message // at-destination deliveries this cycle
		s.active = s.active[:0]
		for i := range s.queues {
			if s.queues[i].length() > 0 {
				s.active = append(s.active, i)
			}
		}
		for _, i := range s.active {
			if err := s.moveHead(i, &arrived); err != nil {
				return s.res, err
			}
		}
		for v := range s.local {
			if n := len(s.local[v]); n > 0 {
				arrived = append(arrived, s.local[v]...)
				s.queuedLocal -= n
				s.local[v] = s.local[v][:0]
			}
		}
		// Phase 2: deliver in a deterministic order and route the
		// responses.  The key must totally order distinct messages:
		// (To, From, Kind) alone lets two messages differing only in
		// Payload land in unspecified order under sort.Slice, so the
		// tie-break continues through Payload and sentAt, and the sort
		// is stable so true duplicates keep their arrival order (which
		// is itself deterministic).
		sort.SliceStable(arrived, func(a, b int) bool {
			return deliveryLess(arrived[a].ev, arrived[a].sentAt, arrived[b].ev, arrived[b].sentAt)
		})
		pending = pending[:0]
		for _, m := range arrived {
			if s.faults != nil && s.faults.deadV[m.dstHost] {
				s.abandon(m) // destination died while the message was in flight
				continue
			}
			s.inflight--
			s.res.Delivered++
			lat := cycle - m.sentAt
			s.latencies = append(s.latencies, lat)
			if s.obs != nil {
				s.obs.OnDeliver(DeliverInfo{Cycle: cycle, Host: m.dstHost, Seq: m.seq,
					Ev: m.ev, Latency: lat, Local: m.srcHost == m.dstHost})
			}
			s.wl.OnMessage(m.ev, emit)
		}
		if err := s.route(pending); err != nil {
			return s.res, err
		}
	}
	// The cap burned every cycle: report them, don't leave Cycles at 0.
	s.res.Cycles = maxCycles
	s.finishStats()
	return s.res, fmt.Errorf("netsim: no quiescence within %d cycles", maxCycles)
}

// moveHead crosses one message over link i: the head of its queue either
// arrives (destination reached), is lost to the fault layer, or is
// forwarded onto the next link of its route.
func (s *sim) moveHead(i int, arrived *[]message) error {
	m := s.queues[i].pop()
	s.queuedLinks--
	here := s.edges[i][1]
	s.res.HopsTotal++
	s.traffic[i]++
	if s.obs != nil {
		s.obs.OnHop(HopInfo{Cycle: s.now, Edge: i, From: s.edges[i][0], To: here,
			Seq: m.seq, Ev: m.ev, Backlog: s.queues[i].length()})
	}
	if f := s.faults; f != nil {
		if f.plan.DropProb > 0 && f.rng.Float64() < f.plan.DropProb {
			s.lose(m, DropRandom)
			return nil
		}
		if f.plan.CorruptProb > 0 && !m.corrupt && f.rng.Float64() < f.plan.CorruptProb {
			m.corrupt = true
			s.res.Corruptions++
		}
	}
	if m.dstHost == here {
		if m.corrupt {
			// Checksum failure at delivery: the receiver discards
			// and nacks; the source retransmits.
			s.lose(m, DropCorrupt)
			return nil
		}
		*arrived = append(*arrived, m)
		return nil
	}
	return s.enqueue(here, m)
}

// route injects freshly emitted guest messages at their source vertices.
func (s *sim) route(evs []Event) error {
	for _, ev := range evs {
		if int(ev.From) >= len(s.place) || int(ev.To) >= len(s.place) || ev.From < 0 || ev.To < 0 {
			return fmt.Errorf("netsim: event %v references unknown process", ev)
		}
		src, dst := s.place[ev.From], s.place[ev.To]
		seq := s.emitted
		s.emitted++
		if s.faults != nil && (s.faults.deadV[src] || s.faults.deadV[dst]) {
			// A dead guest neither sends nor receives; kills are
			// permanent, so retrying cannot help.
			s.res.Unreachable++
			if s.obs != nil {
				s.obs.OnDrop(DropInfo{Cycle: s.now, Seq: seq, Ev: ev, Reason: DropUnreachable})
			}
			continue
		}
		s.inflight++
		m := message{ev: ev, seq: seq, srcHost: src, dstHost: dst, sentAt: s.now}
		if src == dst {
			s.local[src] = append(s.local[src], m)
			s.queuedLocal++
			continue
		}
		if err := s.enqueue(src, m); err != nil {
			return err
		}
	}
	return nil
}

// enqueue places m on the outgoing link of `at` toward its destination.
// Under an active fault plan a preferred next hop that crosses a dead link
// (or enters a dead vertex) falls back to BFS routing on the alive graph;
// a message with no alive route left is abandoned, not an error.
func (s *sim) enqueue(at int32, m message) error {
	var nh int32
	switch {
	case m.rerouted:
		// Once diverted, stay on alive-graph routing: mixing it with
		// the original tables could bounce a message between a detour
		// and a route through the dead link forever.
		nh = s.faults.next(s.host, at, m.dstHost)
	case s.hopFn != nil:
		nh = s.hopFn(at, m.dstHost)
	default:
		nh = s.nextHop[m.dstHost][at]
	}
	if s.faults != nil && !m.rerouted && nh >= 0 && s.faults.blocked(at, nh) {
		nh = s.faults.next(s.host, at, m.dstHost)
		if nh >= 0 {
			s.res.Reroutes++
			m.rerouted = true
		}
	}
	if nh < 0 {
		if s.faults != nil {
			s.abandon(m)
			return nil
		}
		return fmt.Errorf("netsim: no route from %d to %d", at, m.dstHost)
	}
	idx, ok := s.edgeIndex[ekey(at, nh)]
	if !ok {
		return fmt.Errorf("netsim: missing edge %d->%d", at, nh)
	}
	s.queues[idx].push(m)
	s.queuedLinks++
	// The true backlog peak happens at enqueue time: sampling once per
	// cycle after routing misses the spikes built during Phase-1
	// forwarding and the initial emission burst.
	if l := s.queues[idx].length(); l > s.res.MaxQueue {
		s.res.MaxQueue = l
	}
	return nil
}

// ekey packs a directed edge into the edgeIndex key.
func ekey(u, v int32) int64 { return int64(u)<<32 | int64(v) }

// buildRouting fills the per-destination next-hop tables.
func (s *sim) buildRouting() {
	s.nextHop = BuildNextHopTables(s.host)
}

// BuildNextHopTables precomputes shortest-path routing for the host by one
// BFS per destination: tables[dst][cur] is the neighbor of cur on a
// shortest path toward dst, or -1 when unreachable.  The tables are what
// the single-process runner builds internally; they are exported so the
// distsim runner can build them once and share them read-only across every
// shard instead of paying the V² memory per partition.
func BuildNextHopTables(host *graph.Graph) [][]int32 {
	n := host.N()
	tables := make([][]int32, n)
	for dst := 0; dst < n; dst++ {
		nh := make([]int32, n)
		for i := range nh {
			nh[i] = -1
		}
		nh[dst] = int32(dst)
		queue := []int32{int32(dst)}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range host.Neighbors(int(u)) {
				if nh[v] < 0 {
					nh[v] = u // next hop from v toward dst is u
					queue = append(queue, v)
				}
			}
		}
		tables[dst] = nh
	}
	return tables
}

// buildEdges enumerates the directed edges deterministically.
func (s *sim) buildEdges() {
	s.edgeIndex = make(map[int64]int)
	for u := 0; u < s.host.N(); u++ {
		ns := append([]int32(nil), s.host.Neighbors(u)...)
		sort.Slice(ns, func(a, b int) bool { return ns[a] < ns[b] })
		for _, v := range ns {
			s.edgeIndex[ekey(int32(u), v)] = len(s.edges)
			s.edges = append(s.edges, [2]int32{int32(u), v})
		}
	}
	s.queues = make([]linkQueue, len(s.edges))
	s.traffic = make([]int, len(s.edges))
}

// finishStats folds per-link traffic into the result (called by Run's
// return paths via defer-free explicit calls in tests; exposed for reuse).
func (s *sim) finishStats() {
	for _, t := range s.traffic {
		if t > s.res.MaxLinkLoad {
			s.res.MaxLinkLoad = t
		}
	}
	if len(s.latencies) == 0 {
		return
	}
	sort.Ints(s.latencies)
	s.res.LatencyP50 = s.latencies[len(s.latencies)/2]
	s.res.LatencyP99 = s.latencies[len(s.latencies)*99/100]
	s.res.LatencyMax = s.latencies[len(s.latencies)-1]
}
