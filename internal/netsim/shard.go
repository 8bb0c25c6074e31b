package netsim

// The runner.  A coordinator splits the host's link and memory queues
// across shards; RunContext runs one shard and RunSharded several, and
// both produce the same run bit for bit.  Every cycle the coordinator (1)
// routes the due retransmissions, (2) barriers the shards through begin —
// the last cycle's emissions queued, due kills replayed, the
// retransmissions queued, busy links snapshotted —, (3) draws the fault
// generator over the merged snapshot in global link order, (4) barriers
// the shards through fire (Phase 1), during which they hand forwards to
// each other as Go values, and (5) delivers the merged arrivals (Phase 2).
// The coordinator runs shard 0 itself and every other shard runs on its
// own goroutine, so a one-shard run starts none.  The barriers keep the
// one-hop-per-cycle invariant global: no shard starts cycle k+1 until
// every shard has finished the hops of cycle k.
//
// Every decision that depends on global order stays on the coordinator,
// in its run (run.go): the workload, sequence numbers, the fault
// generator, the retransmission pool and the observers.  A shard owns the
// link queues whose tail vertex it owns, the memory queues of its owned
// vertices, the arena that holds their messages, and the Phase-1
// forwarding at those vertices; alive-graph rerouting
// replays from the shared kill schedule, so shards never draw from the
// generator.  Shards report what happened in lists sorted by order keys
// (link ranks, kill-schedule positions, FIFO positions), and the
// coordinator merges them into the run's one event order: links move in
// rank order, then memory queues drain in vertex order.

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"sync"
	"time"
)

// Sharding says how RunSharded splits a run.
type Sharding struct {
	// Shards is the shard count.  Owner maps every host vertex to the
	// shard in [0, Shards) that owns its outgoing links and its memory
	// queue.
	Shards int
	Owner  []int32
	// Sampler, when set, receives one ShardSample per shard per executed
	// cycle.  It is called synchronously on the coordinating goroutine
	// after the cycle's delivery, so it must be cheap and non-blocking
	// (publish into a telemetry ring, not a socket).
	Sampler func(ShardSample)
}

// ShardSample is one shard's share of one executed cycle: the live
// counterpart of the end-of-run ShardStats.
type ShardSample struct {
	Cycle       int
	Shard       int
	Hops        int // link traversals this shard executed this cycle
	BoundaryOut int // messages this shard shipped to other shards this cycle
	// BarrierWaitNanos is how long this shard's fire phase sat waiting
	// for the slowest shard of the cycle: the straggler cost of the
	// epoch barrier.  The slowest shard of a cycle reads ~0.
	BarrierWaitNanos int64
}

// ShardStats describes one shard's share of a run.
type ShardStats struct {
	Vertices    int // host vertices owned
	Links       int // directed links owned
	Hops        int // link traversals executed
	BoundaryOut int // messages shipped to other shards
}

// RunSharded runs cfg like RunContext with the host's queues split across
// sh.Shards shards, and returns each shard's statistics too.  The Result,
// the error and the observer event stream are those of RunContext on the
// same config.
func RunSharded(ctx context.Context, cfg Config, wl Workload, sh Sharding) (Result, []ShardStats, error) {
	r, err := newRun(cfg, wl)
	if err != nil {
		return Result{}, nil, err
	}
	if len(sh.Owner) != cfg.Host.N() {
		return Result{}, nil, fmt.Errorf("netsim: owner map covers %d of %d vertices", len(sh.Owner), cfg.Host.N())
	}
	for v, o := range sh.Owner {
		if o < 0 || int(o) >= sh.Shards {
			return Result{}, nil, fmt.Errorf("netsim: vertex %d assigned to shard %d of %d", v, o, sh.Shards)
		}
	}
	c := newCoord(r, sh)
	defer c.stop()
	res, err := c.cycles(ctx)
	c.stop() // the shards' totals are final once their goroutines exit
	stats := make([]ShardStats, len(c.shards))
	for k, s := range c.shards {
		stats[k] = ShardStats{Vertices: s.nVerts, Links: s.nLinks, Hops: s.hopsTotal, BoundaryOut: s.shippedTotal}
	}
	return res, stats, err
}

// coord drives a run: the run's bookkeeping plus the shards.
type coord struct {
	*run
	shards  []*shard
	sampler func(ShardSample)
	queues  []fifo        // the shards' link queues, by rank
	dec     []hopDecision // the generator's verdict per busy link, by rank; nil unless the plan draws
	wg      sync.WaitGroup
	stopped bool

	heap []cursor  // merge scratch
	hops []HopInfo // a cycle's hops in rank order, when observed
}

func newCoord(r *run, sh Sharding) *coord {
	c := &coord{run: r, sampler: sh.Sampler}
	if r.faults != nil && (r.faults.plan.DropProb > 0 || r.faults.plan.CorruptProb > 0) {
		c.dec = make([]hopDecision, len(r.links.ends))
	}
	r.owner = sh.Owner
	r.inj, r.rel = make([][]placement, sh.Shards), make([][]placement, sh.Shards)
	// The queues and counters are indexed by link rank and vertex, and a
	// shard touches only the entries it owns.
	nLinks := len(r.links.ends)
	queues, traffic, busyPos := make([]fifo, nLinks), make([]int, nLinks), make([]int32, nLinks)
	local := make([]fifo, len(sh.Owner))
	c.queues = queues
	// xch[i][j] carries forwards from shard i to shard j.  Every shard
	// sends to all its peers — empty handoffs included — before receiving
	// any, and each directed pair has one buffer slot, so the exchange
	// cannot deadlock however the shards are scheduled.
	xch := make([][]chan []boundary, sh.Shards)
	for i := range xch {
		xch[i] = make([]chan []boundary, sh.Shards)
		for j := range xch[i] {
			if i != j {
				xch[i][j] = make(chan []boundary, 1)
			}
		}
	}
	for k := 0; k < sh.Shards; k++ {
		sc := scratchPool.Get().(*shardScratch)
		r.inj[k] = sc.inj[:0]
		if k == 0 {
			r.pending = sc.pending[:0]
		}
		s := &shard{self: int32(k), scratch: sc, owner: sh.Owner, links: r.links,
			dec: c.dec, recordHops: r.obs != nil, stamp: sh.Sampler != nil, queues: queues, traffic: traffic,
			busyPos: busyPos, local: local, linked: newBitset(nLinks), waiting: newBitset(len(sh.Owner)), xch: xch,
			out: make([][]boundary, sh.Shards), inbox: make([][]boundary, sh.Shards)}
		s.order = deliveryOrder{shard: int32(k), keys: sc.keys[:0], spare: sc.spare[:0], msgs: sc.msgs[:0]}
		s.slab = arena{slots: sc.slots[:0], free: -1}
		s.hop = hopper{next: r.hop.next, links: r.links, reroutes: &s.reroutes}
		if r.faults != nil {
			s.hop.faults = r.faults.replica()
		}
		c.shards = append(c.shards, s)
	}
	for v, k := range sh.Owner {
		s := c.shards[k]
		s.nVerts++
		s.nLinks += r.links.base[v+1] - r.links.base[v]
	}
	for _, s := range c.shards[1:] {
		s.cmds, s.done = make(chan shardCmd, 1), make(chan error, 1)
		c.wg.Add(1)
		go s.serve(&c.wg)
	}
	return c
}

// stop ends the shard goroutines, waits for them and hands the shards'
// scratch back to the pool; idempotent.
func (c *coord) stop() {
	if c.stopped {
		return
	}
	c.stopped = true
	for _, s := range c.shards[1:] {
		close(s.cmds)
	}
	c.wg.Wait()
	for k, s := range c.shards {
		sc := s.scratch
		sc.inj, sc.keys, sc.spare, sc.msgs, sc.slots = c.inj[k], s.order.keys, s.order.spare, s.order.msgs, s.slab.slots
		if k == 0 {
			sc.pending = c.pending
		}
		s.scratch = nil
		scratchPool.Put(sc)
	}
}

// shardScratch holds the buffers a shard grows during a run: the
// coordinator's placements for it, its Phase-2 order and its arena's
// slots, and on shard 0 the run's emissions.  A run takes one per shard
// from scratchPool, truncated, and hands them back when it stops, so the
// next run starts with the room the last one grew instead of regrowing
// it.  The pool lets go of what it holds over two GC cycles, so an idle
// process keeps none.  Every element is pointer-free.
type shardScratch struct {
	inj         []placement
	keys, spare []deliveryKey
	msgs        []message
	slots       []slot
	pending     []Event
}

var scratchPool = sync.Pool{New: func() any { return new(shardScratch) }}

// barrier runs one command on every shard: shard 0 on the coordinator's
// goroutine, the others on theirs.  It returns the lowest shard's error.
func (c *coord) barrier(fire bool) error {
	cmd := func(k int) shardCmd {
		return shardCmd{fire: fire, now: c.now, inj: c.inj[k], rel: c.rel[k]}
	}
	for k, s := range c.shards[1:] {
		s.cmds <- cmd(k + 1)
	}
	first := c.shards[0].exec(cmd(0))
	for _, s := range c.shards[1:] {
		if err := <-s.done; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// begin opens cycle c.now: the coordinator's replica fires the cycle's
// kills first, because the retransmissions it routes next must see
// post-kill liveness; the shards then queue the last cycle's emissions,
// flush what the kills took down and queue the releases; and the events
// follow in schedule order — each kill with its casualties — and then
// the releases.  It reports the messages sitting on link and memory
// queues.
func (c *coord) begin() (queuedLinks, queuedLocal int, err error) {
	var fired []firedKill
	if c.faults != nil {
		fired = c.faults.advance(c.now)
		if err := c.release(); err != nil {
			return 0, 0, err
		}
	}
	if err := c.barrier(false); err != nil {
		return 0, 0, err
	}
	for k, s := range c.shards {
		c.inj[k], c.rel[k] = c.inj[k][:0], c.rel[k][:0]
		queuedLinks += s.queuedLinks
		queuedLocal += s.queuedLocal
		c.res.MaxQueue = max(c.res.MaxQueue, s.maxQueue)
	}
	i := 0
	killed := func(k int) []lossRecord { return c.shards[k].killed }
	merge(len(c.shards), killed, &c.heap, compareLoss, func(l *lossRecord) {
		for ; i < len(fired) && fired[i].idx <= l.kill; i++ {
			c.killed(fired[i])
		}
		c.settle(l)
	})
	for ; i < len(fired); i++ {
		c.killed(fired[i])
	}
	c.retransmit()
	return queuedLinks, queuedLocal, nil
}

// step draws the fault generator, barriers the shards through Phase 1,
// replays its events in global link order and delivers the arrivals.
func (c *coord) step() error {
	c.draw()
	if err := c.barrier(true); err != nil {
		return err
	}
	var last time.Time
	for _, s := range c.shards {
		c.res.HopsTotal += len(s.busy)
		c.res.Reroutes += s.reroutes
		c.res.MaxQueue = max(c.res.MaxQueue, s.maxQueue)
		c.res.MaxLinkLoad = max(c.res.MaxLinkLoad, s.maxLinkLoad)
		if s.doneAt.After(last) {
			last = s.doneAt
		}
	}
	// Each hop's events follow it: its drop or corrupt discard, or the
	// abandon of a forward with no alive route left.  A link moves one
	// message per cycle, so it loses at most one.
	c.hops = c.hops[:0]
	hops := func(k int) []HopInfo { return c.shards[k].hops }
	merge(len(c.shards), hops, &c.heap, compareHop, func(h *HopInfo) { c.hops = append(c.hops, *h) })
	h := 0
	// Shard k's Phase-1 losses are list 2k, its unrouted forwards 2k+1.
	losses := func(k int) []lossRecord {
		if k%2 == 1 {
			return c.shards[k/2].unrouted
		}
		return c.shards[k/2].lost
	}
	merge(2*len(c.shards), losses, &c.heap, compareLoss, func(l *lossRecord) {
		for ; h < len(c.hops) && c.hops[h].Edge <= l.edge; h++ {
			c.obs.OnHop(c.hops[h])
		}
		c.settle(l)
	})
	for ; h < len(c.hops); h++ {
		c.obs.OnHop(c.hops[h])
	}
	// Phase 2: every shard sorted its arrivals; deliver them merged, then
	// admit the responses.
	c.pending = c.pending[:0]
	arrivals := func(k int) []deliveryKey { return c.shards[k].order.keys }
	merge(len(c.shards), arrivals, &c.heap, compareDelivery, func(k *deliveryKey) {
		c.deliver(&c.shards[k.shard].order.msgs[k.pos])
	})
	if err := c.admit(); err != nil {
		return err
	}
	if c.sampler != nil {
		for k, s := range c.shards {
			c.sampler(ShardSample{Cycle: c.now, Shard: k, Hops: len(s.busy), BoundaryOut: s.shipped,
				BarrierWaitNanos: last.Sub(s.doneAt).Nanoseconds()})
		}
	}
	return nil
}

// draw consumes the fault generator once per busy link in ascending rank
// and leaves its verdicts in c.dec for the shards.
func (c *coord) draw() {
	if c.dec == nil {
		return
	}
	busy := func(k int) []int { return c.shards[k].busy }
	merge(len(c.shards), busy, &c.heap, compareRank, func(e *int) {
		s := c.shards[c.owner[c.links.ends[*e][0]]]
		v := c.faults.draw(s.slab.head(&c.queues[*e]).Corrupt)
		if v.corrupt {
			c.res.Corruptions++
		}
		c.dec[*e] = v
	})
}

// settle applies the run's loss policy to one shard-reported loss.
func (c *coord) settle(l *lossRecord) {
	if l.abandon {
		c.abandon(l.m)
		return
	}
	c.lose(l.m, l.reason)
}

// lossRecord is one message instance a shard lost.  Kill casualties sort
// by (kill, step, pos): the kill's schedule position, the flushed link's
// position in its flush order (len(links) for the vertex's memory queue),
// and the FIFO position within the flushed queue.  Phase-1 losses sort by
// the rank of the link the message just crossed.
type lossRecord struct {
	kill, step, pos int
	edge            int
	m               message
	reason          DropReason
	abandon         bool // no nack and no retry: no alive route, or a dead vertex's memory queue
}

// compareLoss orders the loss records of one barrier.  A barrier reports
// one kind — kill casualties, whose edge is 0, or Phase-1 losses, whose
// kill, step and pos are 0 — so one comparison serves both.
func compareLoss(a, b *lossRecord) int {
	if c := cmp.Compare(a.kill, b.kill); c != 0 {
		return c
	}
	if c := cmp.Compare(a.step, b.step); c != 0 {
		return c
	}
	if c := cmp.Compare(a.pos, b.pos); c != 0 {
		return c
	}
	return cmp.Compare(a.edge, b.edge)
}

func compareHop(a, b *HopInfo) int { return cmp.Compare(a.Edge, b.Edge) }

func compareRank(a, b *int) int { return cmp.Compare(*a, *b) }

// boundary is one Phase-1 forward: the head of link src moved to vertex
// at, whose owner queues it on at's link toward its destination.
type boundary struct {
	src int
	at  int32
	m   message
}

func compareSrc(a, b *boundary) int { return cmp.Compare(a.src, b.src) }

// merge visits the elements of n lists, list(k) for k < n, each sorted
// by compare, in one sorted sequence.  Every key merged here names a link, a vertex or a kill's
// flush owned by one shard, so no two lists share a key.  heap is reused
// scratch.
func merge[T any](n int, list func(k int) []T, heap *[]cursor, compare func(a, b *T) int, visit func(*T)) {
	h := (*heap)[:0]
	for k := 0; k < n; k++ {
		if len(list(k)) > 0 {
			h = append(h, cursor{k: k})
		}
	}
	*heap = h
	head := func(i int) *T { return &list(h[i].k)[h[i].pos] }
	down := func(i int) {
		for {
			least, l := i, 2*i+1
			if l < len(h) && compare(head(l), head(least)) < 0 {
				least = l
			}
			if l+1 < len(h) && compare(head(l+1), head(least)) < 0 {
				least = l + 1
			}
			if least == i {
				return
			}
			h[i], h[least] = h[least], h[i]
			i = least
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(h) > 1 {
		visit(head(0))
		if h[0].pos++; h[0].pos == len(list(h[0].k)) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
	if len(h) == 1 {
		// The last list left needs no comparisons.
		last := list(h[0].k)
		for i := h[0].pos; i < len(last); i++ {
			visit(&last[i])
		}
	}
}

// cursor is a merge's position in one of its lists.
type cursor struct{ k, pos int }

// shardCmd opens one barrier: begin, which queues the placements, or
// fire, which runs Phase 1.
type shardCmd struct {
	fire     bool
	now      int
	inj, rel []placement
}

// shard is one partition of a run.  Shard 0 runs on the coordinator's
// goroutine; any other runs the barriers on its own (serve).  Between
// barriers a shard is idle and the coordinator reads its fields, ordered
// after the shard's writes by the done channel and before its next writes
// by the cmds channel.
type shard struct {
	self           int32
	scratch        *shardScratch // the pooled buffers behind order, slab and the coordinator's inj
	owner          []int32
	nVerts, nLinks int // owned vertices and links
	links          *edgeRanker
	hop            hopper        // over the shard's own kill replica
	dec            []hopDecision // the coordinator's verdicts by rank; nil unless the plan draws
	recordHops     bool          // the run has observers: report every hop
	stamp          bool          // a sampler reads doneAt

	// The run's queues and counters, shared by every shard: by link rank,
	// and the memory queues by vertex.  A shard touches only its own, and
	// their messages sit in its slab.
	queues  []fifo
	traffic []int
	busyPos []int32 // 1 + the link's position in busy while it is busy, else 0
	local   []fifo
	slab    arena
	// The shard's own marks: its links with a queued message, and its
	// vertices with a waiting memory queue.
	linked, waiting bitset

	now, queuedLinks, queuedLocal, maxQueue, maxLinkLoad int
	hopsTotal, shippedTotal                              int

	// This cycle's report, each list sorted by its order key.
	killed   []lossRecord
	busy     []int // ranks of the links busy at the snapshot
	hops     []HopInfo
	lost     []lossRecord // Phase-1 losses on owned links, by rank
	unrouted []lossRecord // forwards left with no alive route, by source rank
	order    deliveryOrder
	reroutes int
	shipped  int // forwards handed to other shards
	doneAt   time.Time

	out   [][]boundary // outboxes per shard, by source rank; out[self] holds forwards that stay
	inbox [][]boundary // this cycle's forwards from the other shards, per sender
	heap  []cursor

	cmds chan shardCmd // nil for shard 0
	done chan error
	xch  [][]chan []boundary
}

// bitset marks link ranks or vertices; iterating its words visits the
// marks in ascending order.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }
func (b bitset) set(i int)   { b[i>>6] |= 1 << (i & 63) }
func (b bitset) clear(i int) { b[i>>6] &^= 1 << (i & 63) }

func (sh *shard) serve(wg *sync.WaitGroup) {
	defer wg.Done()
	for cmd := range sh.cmds {
		sh.done <- sh.exec(cmd)
	}
}

// exec runs one barrier's work.
func (sh *shard) exec(cmd shardCmd) error {
	sh.now = cmd.now
	if !cmd.fire {
		sh.begin(cmd.inj, cmd.rel)
		return nil
	}
	err := sh.fire()
	if sh.stamp {
		// Stamped here, not at the coordinator's sequential reads: the
		// spread of these stamps is the true straggler skew.
		sh.doneAt = time.Now()
	}
	return err
}

// begin queues the last cycle's emissions, replays the cycle's kills,
// queues the releases, and snapshots the busy links.
func (sh *shard) begin(inj, rel []placement) {
	sh.place(inj)
	sh.killed = sh.killed[:0]
	if f := sh.hop.faults; f != nil {
		for _, k := range f.advance(sh.now) {
			for step, l := range k.links {
				if sh.owner[l[0]] == sh.self {
					sh.flush(sh.links.rank(l[0], l[1]), k.idx, step)
				}
			}
			// Co-located deliveries pending at a dying vertex die with it.
			if k.vertex && sh.owner[k.u] == sh.self {
				q := &sh.local[k.u]
				sh.queuedLocal -= int(q.n)
				sh.slab.drain(q, func(pos int, m *message) {
					sh.killed = append(sh.killed, lossRecord{kill: k.idx, step: len(k.links), pos: pos,
						m: *m, reason: DropUnreachable, abandon: true})
				})
				sh.waiting.clear(int(k.u))
			}
		}
	}
	sh.place(rel)
	busy, busyPos := sh.busy[:0], sh.busyPos
	for _, e := range sh.busy {
		busyPos[e] = 0
	}
	for w, x := range sh.linked {
		for ; x != 0; x &= x - 1 {
			e := w<<6 | bits.TrailingZeros64(x)
			busy = append(busy, e)
			busyPos[e] = int32(len(busy))
		}
	}
	sh.busy = busy
}

// place queues coordinator-routed messages.  The backlog peak is sampled
// at enqueue time, here and in push: sampling once per cycle would miss
// the spikes of the emission bursts and of Phase-1 forwarding.
func (sh *shard) place(ps []placement) {
	for i := range ps {
		p := &ps[i]
		if p.edge < 0 {
			sh.slab.push(&sh.local[p.at], &p.m)
			sh.waiting.set(int(p.at))
			sh.queuedLocal++
			continue
		}
		q := &sh.queues[p.edge]
		sh.slab.push(q, &p.m)
		sh.linked.set(p.edge)
		sh.queuedLinks++
		sh.maxQueue = max(sh.maxQueue, int(q.n))
	}
}

// flush loses every message on the owned link e, a casualty of the kill
// at schedule position kill.
func (sh *shard) flush(e, kill, step int) {
	q := &sh.queues[e]
	sh.queuedLinks -= int(q.n)
	sh.slab.drain(q, func(pos int, m *message) {
		sh.killed = append(sh.killed, lossRecord{kill: kill, step: step, pos: pos, m: *m, reason: DropKilled})
	})
	sh.linked.clear(e)
}

// fire runs the shard's Phase 1: every link busy at the snapshot moves
// exactly its head, with the coordinator's verdict when the plan draws;
// the forwards cross to their vertices' owners; every forward landing
// here is queued in ascending source rank; and the memory queues drain.
// The busy set is the cycle-start snapshot: a message forwarded onto a
// link this cycle does not move again until the next cycle, or a message
// on an ascending route would cross several links per cycle and dilation
// would no longer bound the slowdown.
func (sh *shard) fire() error {
	sh.hops, sh.lost, sh.unrouted = sh.hops[:0], sh.lost[:0], sh.unrouted[:0]
	sh.order.reset()
	sh.reroutes = 0
	for j := range sh.out {
		sh.out[j] = sh.out[j][:0]
	}
	for _, e := range sh.busy {
		q := &sh.queues[e]
		m := sh.slab.pop(q)
		if q.n == 0 {
			sh.linked.clear(e)
		}
		sh.queuedLinks--
		from, here := sh.links.ends[e][0], sh.links.ends[e][1]
		sh.traffic[e]++
		sh.maxLinkLoad = max(sh.maxLinkLoad, sh.traffic[e])
		if sh.recordHops {
			sh.hops = append(sh.hops, HopInfo{Cycle: sh.now, Edge: e, From: from, To: here,
				Seq: m.Seq, Ev: m.Ev, Backlog: int(q.n)})
		}
		if sh.dec != nil {
			if sh.dec[e].drop {
				sh.lost = append(sh.lost, lossRecord{edge: e, m: m, reason: DropRandom})
				continue
			}
			m.Corrupt = m.Corrupt || sh.dec[e].corrupt
		}
		if m.DstHost == here {
			if m.Corrupt {
				// Checksum failure at delivery: discard and nack.
				sh.lost = append(sh.lost, lossRecord{edge: e, m: m, reason: DropCorrupt})
				continue
			}
			sh.order.add(&m, e)
			continue
		}
		o := sh.owner[here]
		sh.out[o] = append(sh.out[o], boundary{src: e, at: here, m: m})
	}
	sh.hopsTotal += len(sh.busy)

	// Send every handoff before receiving any.  The receiver reads the
	// sender's outbox in place: the sender leaves it alone until its next
	// fire, which the barrier orders after this one.
	sh.shipped = 0
	for j, ch := range sh.xch[sh.self] {
		if j != int(sh.self) {
			sh.shipped += len(sh.out[j])
			ch <- sh.out[j]
		}
	}
	sh.shippedTotal += sh.shipped
	for j := range sh.xch {
		if j != int(sh.self) {
			sh.inbox[j] = <-sh.xch[j][sh.self]
		}
	}
	var err error
	merge(len(sh.xch), sh.forwards, &sh.heap, compareSrc, func(b *boundary) {
		if err == nil {
			err = sh.push(b)
		}
	})
	if err != nil {
		return err
	}
	n := len(sh.links.ends)
	for w, x := range sh.waiting {
		for ; x != 0; x &= x - 1 {
			v := w<<6 | bits.TrailingZeros64(x)
			q := &sh.local[v]
			sh.queuedLocal -= int(q.n)
			sh.slab.drain(q, func(_ int, m *message) { sh.order.add(m, n+v) })
		}
		sh.waiting[w] = 0
	}
	sh.order.sort()
	return nil
}

// forwards returns this cycle's forwards to the shard from shard j.
func (sh *shard) forwards(j int) []boundary {
	if j == int(sh.self) {
		return sh.out[j]
	}
	return sh.inbox[j]
}

// push routes one forward at its arrival vertex through the shared next-hop
// policy.  The run orders a cycle's hops by link rank, as if each link
// moved in turn and queued its forward at once; a shard pops every busy
// link before it pushes any forward.  So when the target link is busy this
// cycle and ranks above the source, the rank order still has its head
// queued: it counts toward the backlog peak and the target's own hop
// record.
func (sh *shard) push(b *boundary) error {
	m := b.m
	e, err := sh.hop.link(b.at, &m)
	if err != nil {
		return err
	}
	if e < 0 {
		sh.unrouted = append(sh.unrouted, lossRecord{edge: b.src, m: b.m, reason: DropUnreachable, abandon: true})
		return nil
	}
	q := &sh.queues[e]
	sh.slab.push(q, &m)
	sh.linked.set(e)
	sh.queuedLinks++
	sample := int(q.n)
	if p := sh.busyPos[e]; p > 0 && e > b.src {
		sample++
		if sh.recordHops {
			sh.hops[p-1].Backlog++
		}
	}
	sh.maxQueue = max(sh.maxQueue, sample)
	return nil
}
