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
// Every run on the X-tree machine is built by OnXTree, which numbers the
// host's vertices by heap id and routes each hop in closed form from the
// X-tree distance (§2): no routing table, at any height.  Other hosts route
// by the caller's NextHop, by a table-free walk when the host is a tree,
// and otherwise by next-hop tables (BuildNextHopTables).
//
// There is one runner (shard.go): a coordinator that drives the run's
// guest-level bookkeeping (run.go) and splits the host's queues across
// shards.  RunContext runs one shard, on the caller's goroutine;
// RunSharded runs several, all but the first on goroutines of their own,
// and reproduces the one-shard run bit for bit.  Every decision about a
// guest message, and Phase 1 itself, has one implementation.
package netsim

import (
	"context"

	"xtreesim/internal/graph"
)

// MaxHostVertices bounds the V² next-hop tables a run builds for a host
// that is neither a tree nor given a NextHop router.  Tree hosts and
// X-tree runs built by OnXTree route without a table, so the cap does not
// apply to them.
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
	// return a neighbor of cur strictly closer to dst.  OnXTree sets it
	// to the X-tree's closed-form router (XTree.NextHopID).  Without one
	// a tree host routes table-free and any other host builds V²
	// next-hop tables, capped at MaxHostVertices.
	NextHop func(cur, dst int32) int32
	// Faults, when non-nil and active, injects deterministic failures
	// (link/vertex kills, drops, corruption) and enables the
	// ack/retransmission delivery layer.  A nil or inert plan leaves
	// the simulator behavior byte-identical to a run without one.
	Faults *FaultPlan
	// Observers receive per-cycle and per-event callbacks (see
	// Observer).  An empty list costs nothing on the hot path.
	Observers []Observer
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

// fifo is a queue of messages: a link queue or a vertex's memory queue.
// Its messages sit in the slots of its shard's arena, each slot naming
// the next; the queue holds its first and last slot and its length.  The
// zero value is empty.
type fifo struct{ head, tail, n int32 }

// arena holds the messages of every queue one shard owns, in one slab of
// slots with a free list threaded through it.  A popped or flushed
// message's slot goes back on the free list and a push takes a free slot
// before it grows the slab, so the slab is as long as the shard's peak of
// queued messages, however much traffic its queues carry.  A shard
// touches only its own arena; an arena lives for one run, and its slots
// go on to the next run through scratchPool.
type arena struct {
	slots []slot
	free  int32 // first free slot, or -1
}

// slot is one message of a queue, or a free slot.
type slot struct {
	m    message
	next int32 // the queue's next slot, or the free list's
}

// push appends m to q.
func (a *arena) push(q *fifo, m *message) {
	s := a.free
	if s >= 0 {
		a.free = a.slots[s].next
	} else {
		s = int32(len(a.slots))
		a.slots = append(a.slots, slot{})
	}
	a.slots[s].m = *m // the tail's next is never read
	if q.n == 0 {
		q.head = s
	} else {
		a.slots[q.tail].next = s
	}
	q.tail = s
	q.n++
}

// pop removes and returns the head of the non-empty queue q.
func (a *arena) pop(q *fifo) message {
	s := q.head
	m := a.slots[s].m
	q.head = a.slots[s].next
	q.n--
	a.slots[s].next = a.free
	a.free = s
	return m
}

// head returns the first message of the non-empty queue q.
func (a *arena) head(q *fifo) *message { return &a.slots[q.head].m }

// drain visits the messages of q in FIFO order with their positions, then
// frees their slots and empties q.
func (a *arena) drain(q *fifo, visit func(pos int, m *message)) {
	for s, pos := q.head, 0; pos < int(q.n); s, pos = a.slots[s].next, pos+1 {
		visit(pos, &a.slots[s].m)
	}
	if q.n > 0 {
		a.slots[q.tail].next = a.free
		a.free = q.head
	}
	*q = fifo{}
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
	var owner []int32 // every vertex on shard 0
	if cfg.Host != nil {
		owner = make([]int32, cfg.Host.N())
	}
	res, _, err := RunSharded(ctx, cfg, wl, Sharding{Shards: 1, Owner: owner})
	return res, err
}
