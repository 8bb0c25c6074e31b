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
//
// RunContext runs a simulation on one goroutine; RunSharded splits the
// host's queues across shard goroutines (shard.go) and reproduces the
// same run bit for bit.  Both share one run state (run.go), so every
// decision about a guest message has one implementation.
package netsim

import (
	"context"
	"fmt"

	"xtreesim/internal/graph"
)

// MaxHostVertices bounds the V² next-hop tables a run builds for a host
// that is neither a tree nor given a NextHop router.  Tree hosts route
// without a table, so the cap does not apply to them.
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
	// NextHop, when non-nil, replaces the built-in routing: it must
	// return a neighbor of cur strictly closer to dst.  Without one a
	// tree host routes table-free and any other host builds V² next-hop
	// tables, capped at MaxHostVertices; a table-free router
	// such as XTree.NextHopID, which computes each hop from the
	// closed-form X-tree distance, lifts the cap.
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
	// Use the distsim runner (or xtreesim.WithPartitions) instead, which
	// picks the shards and calls RunSharded; RunSharded ignores the field.
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

// message is one in-flight guest message with all of its per-message
// simulator state.  It holds no pointers, so shards hand it to each other
// as a plain value.
type message struct {
	Ev      Event
	Seq     int64 // emission number; identifies the message across hops and retries
	SrcHost int32 // retransmissions restart here
	DstHost int32
	SentAt  int

	// Fault-layer state; all zero on a fault-free run.
	Attempts int  // retransmissions so far
	Corrupt  bool // payload mangled in flight, fails the delivery checksum
	Rerouted bool // left its preferred route; stays on alive-graph routing
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

// sim is the single-process runner: one goroutine owns every link and
// memory queue of the host.
type sim struct {
	*run
	queues      []linkQueue // by link rank, FIFO
	traffic     []int       // messages ever moved per link
	local       [][]message // per-vertex memory queues
	active      []int       // scratch: links busy at the start of the cycle
	queuedLinks int         // messages sitting on link queues right now
	queuedLocal int         // messages sitting in memory queues right now
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
	if cfg.Partitions > 1 {
		return Result{}, fmt.Errorf("netsim: Config.Partitions=%d: the single-process runner cannot shard; use the distsim runner (xtreesim.WithPartitions)", cfg.Partitions)
	}
	r, err := newRun(cfg, wl)
	if err != nil {
		return Result{}, err
	}
	links := len(r.links.ends)
	s := &sim{run: r, queues: make([]linkQueue, links), traffic: make([]int, links),
		local: make([][]message, cfg.Host.N())}
	return r.cycles(ctx, s)
}

// begin queues the last cycle's emissions, then fires the cycle's kills,
// flushing the queues they take down, and the due retransmissions.
func (s *sim) begin() (int, int, error) {
	s.queue()
	if s.faults != nil {
		for _, k := range s.faults.advance(s.now) {
			s.killed(k)
			for _, l := range k.links {
				s.flush(l[0], l[1])
			}
			// Co-located deliveries pending at a dying vertex die with it.
			if k.vertex && len(s.local[k.u]) > 0 {
				for _, m := range s.local[k.u] {
					s.abandon(m)
				}
				s.queuedLocal -= len(s.local[k.u])
				s.local[k.u] = nil
			}
		}
		if err := s.release(); err != nil {
			return 0, 0, err
		}
		s.queue()
		s.retransmit()
	}
	return s.queuedLinks, s.queuedLocal, nil
}

// flush loses every message queued on the directed link u→v.
func (s *sim) flush(u, v int32) {
	q := &s.queues[s.links.rank(u, v)]
	n := q.length()
	if n == 0 {
		return
	}
	for _, m := range q.live() {
		s.lose(m, DropKilled)
	}
	q.reset()
	s.queuedLinks -= n
}

func (s *sim) step(CycleInfo) error {
	// Phase 1: every link that was busy at the start of the cycle moves
	// exactly one message — its head as of the cycle start — and all
	// memory queues drain.  The busy set is snapshotted first: a message
	// forwarded onto a later-indexed queue this cycle must NOT move again
	// until the next cycle, or a message on an ascending route would
	// cross several links per cycle and dilation would no longer bound
	// the slowdown.
	s.arrived = s.arrived[:0]
	s.active = s.active[:0]
	for i := range s.queues {
		if s.queues[i].length() > 0 {
			s.active = append(s.active, i)
		}
	}
	for _, i := range s.active {
		if err := s.moveHead(i); err != nil {
			return err
		}
	}
	for v := range s.local {
		if n := len(s.local[v]); n > 0 {
			s.arrived = append(s.arrived, s.local[v]...)
			s.queuedLocal -= n
			s.local[v] = s.local[v][:0]
		}
	}
	// Phase 2: deliver in a deterministic order and route the responses.
	// The order must be total over distinct messages: (To, From, Kind)
	// alone would leave two messages differing only in Payload in
	// unspecified order, so deliveryOrder continues through Payload and
	// SentAt, and true duplicates keep their arrival order (link arrivals
	// by rank, then memory queues by vertex).
	return s.deliver()
}

// moveHead crosses one message over link i: the head of its queue either
// arrives (destination reached), is lost to the fault layer, or is
// forwarded onto the next link of its route.
func (s *sim) moveHead(i int) error {
	m := s.queues[i].pop()
	s.queuedLinks--
	from, here := s.links.ends[i][0], s.links.ends[i][1]
	s.res.HopsTotal++
	s.traffic[i]++
	if s.traffic[i] > s.res.MaxLinkLoad {
		s.res.MaxLinkLoad = s.traffic[i]
	}
	if s.obs != nil {
		s.obs.OnHop(HopInfo{Cycle: s.now, Edge: i, From: from, To: here,
			Seq: m.Seq, Ev: m.Ev, Backlog: s.queues[i].length()})
	}
	if s.faults != nil {
		d := s.faults.draw(m.Corrupt)
		if d.drop {
			s.lose(m, DropRandom)
			return nil
		}
		if d.corrupt {
			m.Corrupt = true
			s.res.Corruptions++
		}
	}
	if m.DstHost == here {
		if m.Corrupt {
			// Checksum failure at delivery: the receiver discards
			// and nacks; the source retransmits.
			s.lose(m, DropCorrupt)
			return nil
		}
		s.arrived = append(s.arrived, m)
		return nil
	}
	e, err := s.hop.link(here, &m)
	if err != nil {
		return err
	}
	if e < 0 {
		s.abandon(m)
		return nil
	}
	s.push(e, m)
	return nil
}

// queue puts the messages in r.placed on their queues.
func (s *sim) queue() {
	for _, p := range s.placed {
		if p.edge < 0 {
			s.local[p.at] = append(s.local[p.at], p.m)
			s.queuedLocal++
		} else {
			s.push(p.edge, p.m)
		}
	}
	s.placed = s.placed[:0]
}

// push queues m on link e.  The true backlog peak happens at enqueue
// time: sampling once per cycle after routing misses the spikes built
// during Phase-1 forwarding and the initial emission burst.
func (s *sim) push(e int, m message) {
	q := &s.queues[e]
	q.push(m)
	s.queuedLinks++
	if l := q.length(); l > s.res.MaxQueue {
		s.res.MaxQueue = l
	}
}
