package netsim

// Sharded runs.  A coordinator splits the host across shard goroutines
// and reproduces the single-process run bit for bit.  Every cycle it
// (1) routes the due retransmissions, (2) barriers the shards through
// begin — the last cycle's emissions queued, due kills replayed, the
// retransmissions queued, busy links snapshotted —, (3) draws the fault
// generator over the merged snapshot in global link order, (4) barriers
// the shards through fire, during which they hand forwards to each other
// as Go values, and (5) delivers the merged arrivals.  The barriers keep
// the one-hop-per-cycle invariant global: no shard starts cycle k+1 until
// every shard has finished the hops of cycle k.
//
// Every decision that depends on global order stays on the coordinator,
// in the run it shares with the single-process runner: the workload,
// sequence numbers, the fault generator, the retransmission pool and the
// observers.  A shard owns the link queues whose tail vertex it owns, the
// memory queues of its owned vertices and the Phase-1 forwarding at them;
// alive-graph rerouting replays from the shared kill schedule, so shards
// never draw from the generator.  Shards report what happened with order
// keys (link ranks, kill-schedule positions, FIFO positions) from which
// the coordinator rebuilds the single-process event order.

import (
	"cmp"
	"context"
	"fmt"
	"slices"
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
	// Audit attaches a LinkAudit to every shard and one to the merged
	// event stream; any violation fails the run.
	Audit bool
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
// sh.Shards goroutines, and returns each shard's statistics too.  The
// Result, the error and the observer event stream are those of RunContext
// on the same config; cfg.Partitions is not consulted.
func RunSharded(ctx context.Context, cfg Config, wl Workload, sh Sharding) (Result, []ShardStats, error) {
	var audit *LinkAudit
	if sh.Audit {
		audit = NewLinkAudit()
		cfg.Observers = append(slices.Clip(cfg.Observers), audit)
	}
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
	res, err := r.cycles(ctx, c)
	c.stop() // the shards' totals are final once their goroutines exit
	stats := make([]ShardStats, len(c.shards))
	for k, s := range c.shards {
		stats[k] = ShardStats{Vertices: len(s.verts), Links: len(s.edges), Hops: s.hopsTotal, BoundaryOut: s.shippedTotal}
	}
	if err == nil && sh.Audit {
		for k, s := range c.shards {
			if err := s.audit.Err(); err != nil {
				return res, stats, fmt.Errorf("netsim: shard %d audit: %w", k, err)
			}
		}
		if err := audit.Err(); err != nil {
			return res, stats, fmt.Errorf("netsim: global audit: %w", err)
		}
	}
	return res, stats, err
}

// coord drives a sharded run: the run's bookkeeping plus the shards.
type coord struct {
	*run
	owner   []int32
	shards  []*shard
	sampler func(ShardSample)
	draws   bool // the plan has drop or corruption probabilities
	wg      sync.WaitGroup
	stopped bool

	inj, rel [][]placement   // per shard, for the next begin barrier
	decs     [][]hopDecision // per shard, aligned with its busy links

	// Merge buffers, reused from cycle to cycle.
	losses   []lossRecord
	drawn    []drawSlot
	hops     []HopInfo
	arrivals []arrival
}

func newCoord(r *run, sh Sharding) *coord {
	c := &coord{run: r, owner: sh.Owner, sampler: sh.Sampler,
		draws: r.faults != nil && (r.faults.plan.DropProb > 0 || r.faults.plan.CorruptProb > 0),
		inj:   make([][]placement, sh.Shards), rel: make([][]placement, sh.Shards),
		decs: make([][]hopDecision, sh.Shards)}
	// xch[i][j] carries forwards from shard i to shard j.  Every shard
	// sends to all its peers — empty handoffs included — before receiving
	// any, and each directed pair has one buffer slot, so the exchange
	// cannot deadlock however the shards are scheduled.
	xch := make([][]chan []boundary, sh.Shards)
	for i := range xch {
		xch[i] = make([]chan []boundary, sh.Shards)
		for j := range xch[i] {
			xch[i][j] = make(chan []boundary, 1)
		}
	}
	for k := 0; k < sh.Shards; k++ {
		s := &shard{self: int32(k), owner: sh.Owner, links: r.links, recordHops: r.obs != nil,
			in: make(chan shardCmd, 1), done: make(chan error, 1), xch: xch,
			out: make([][]boundary, sh.Shards)}
		s.hop = hopper{next: r.hop.next, links: r.links, reroutes: &s.reroutes}
		if r.faults != nil {
			s.hop.faults = r.faults.replica()
		}
		if sh.Audit {
			s.audit = NewLinkAudit()
		}
		for e, l := range r.links.ends {
			if sh.Owner[l[0]] == s.self {
				s.edges = append(s.edges, e)
			}
		}
		for v, o := range sh.Owner {
			if o == s.self {
				s.verts = append(s.verts, int32(v))
			}
		}
		s.queues = make([]linkQueue, len(s.edges))
		s.traffic = make([]int, len(s.edges))
		s.busyAt = make([]int, len(s.edges))
		s.local = make([][]message, len(s.verts))
		c.shards = append(c.shards, s)
	}
	for _, s := range c.shards {
		c.wg.Add(1)
		go s.serve(&c.wg)
	}
	return c
}

// stop ends the shard goroutines and waits for them; idempotent.
func (c *coord) stop() {
	if c.stopped {
		return
	}
	c.stopped = true
	for _, s := range c.shards {
		close(s.in)
	}
	c.wg.Wait()
}

// barrier sends every shard its command and waits for all of them.
func (c *coord) barrier(cmd func(k int) shardCmd) error {
	for k, s := range c.shards {
		s.in <- cmd(k)
	}
	var first error
	for _, s := range c.shards {
		if err := <-s.done; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// hand moves the routed messages in r.placed to their owners' lists.
func (c *coord) hand(dst [][]placement) {
	for _, p := range c.placed {
		k := c.owner[p.at]
		dst[k] = append(dst[k], p)
	}
	c.placed = c.placed[:0]
}

// begin replays the single-process cycle start: the coordinator's replica
// fires the cycle's kills first, because the retransmissions it routes
// next must see post-kill liveness; the shards then queue the last
// cycle's emissions, flush what the kills took down and queue the
// releases; and the events follow in the single-process order — each
// kill with its casualties, then the releases.
func (c *coord) begin() (int, int, error) {
	c.hand(c.inj)
	var fired []firedKill
	if c.faults != nil {
		fired = c.faults.advance(c.now)
		if err := c.release(); err != nil {
			return 0, 0, err
		}
		c.hand(c.rel)
	}
	err := c.barrier(func(k int) shardCmd { return shardCmd{now: c.now, inj: c.inj[k], rel: c.rel[k]} })
	if err != nil {
		return 0, 0, err
	}
	queuedLinks, queuedLocal := 0, 0
	c.losses = c.losses[:0]
	for k, s := range c.shards {
		c.inj[k], c.rel[k] = c.inj[k][:0], c.rel[k][:0]
		c.losses = append(c.losses, s.killed...)
		queuedLinks += s.queuedLinks
		queuedLocal += s.queuedLocal
		c.res.MaxQueue = max(c.res.MaxQueue, s.maxQueue)
	}
	slices.SortFunc(c.losses, func(x, y lossRecord) int {
		if x.kill != y.kill {
			return cmp.Compare(x.kill, y.kill)
		}
		if x.step != y.step {
			return cmp.Compare(x.step, y.step)
		}
		return cmp.Compare(x.pos, y.pos)
	})
	i := 0
	for _, k := range fired {
		c.killed(k)
		for ; i < len(c.losses) && c.losses[i].kill == k.idx; i++ {
			c.settle(c.losses[i])
		}
	}
	c.retransmit()
	return queuedLinks, queuedLocal, nil
}

// step draws the fault generator, barriers the shards through Phase 1,
// replays its events in global link order and delivers the arrivals.
func (c *coord) step(ci CycleInfo) error {
	c.draw()
	err := c.barrier(func(k int) shardCmd { return shardCmd{fire: true, now: c.now, dec: c.decs[k], ci: ci} })
	if err != nil {
		return err
	}
	c.losses, c.hops, c.arrivals = c.losses[:0], c.hops[:0], c.arrivals[:0]
	var last time.Time
	for _, s := range c.shards {
		c.losses = append(c.losses, s.lost...)
		c.hops = append(c.hops, s.hops...)
		c.arrivals = append(c.arrivals, s.arrivals...)
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
	slices.SortFunc(c.hops, func(a, b HopInfo) int { return cmp.Compare(a.Edge, b.Edge) })
	slices.SortFunc(c.losses, func(a, b lossRecord) int { return cmp.Compare(a.edge, b.edge) })
	h := 0
	for _, l := range c.losses {
		for ; h < len(c.hops) && c.hops[h].Edge <= l.edge; h++ {
			c.obs.OnHop(c.hops[h])
		}
		c.settle(l)
	}
	for ; h < len(c.hops); h++ {
		c.obs.OnHop(c.hops[h])
	}
	// Link arrivals by rank, then memory queues by vertex: the
	// single-process arrival order.
	slices.SortStableFunc(c.arrivals, func(a, b arrival) int { return cmp.Compare(a.key, b.key) })
	c.arrived = c.arrived[:0]
	for _, a := range c.arrivals {
		c.arrived = append(c.arrived, a.m)
	}
	if err := c.deliver(); err != nil {
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

// drawSlot is one busy link of the merged snapshot: the shard that owns it
// and its position in that shard's busy list.
type drawSlot struct {
	shard, pos, edge int
	corrupt          bool // the head is already corrupt
}

// draw consumes the fault generator once per busy link in ascending global
// rank, the order in which the single-process runner moves them, and
// leaves each shard its verdicts in c.decs.
func (c *coord) draw() {
	if !c.draws {
		return
	}
	c.drawn = c.drawn[:0]
	for k, s := range c.shards {
		c.decs[k] = c.decs[k][:0]
		for pos, slot := range s.busy {
			c.decs[k] = append(c.decs[k], hopDecision{})
			c.drawn = append(c.drawn, drawSlot{shard: k, pos: pos, edge: s.edges[slot],
				corrupt: s.queues[slot].live()[0].Corrupt})
		}
	}
	slices.SortFunc(c.drawn, func(a, b drawSlot) int { return cmp.Compare(a.edge, b.edge) })
	for _, d := range c.drawn {
		v := c.faults.draw(d.corrupt)
		if v.corrupt {
			c.res.Corruptions++
		}
		c.decs[d.shard][d.pos] = v
	}
}

// settle replays the single-process handling of one shard-reported loss.
func (c *coord) settle(l lossRecord) {
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

// boundary is one Phase-1 forward: the head of link src moved to vertex
// at, whose owner queues it on at's link toward its destination.
type boundary struct {
	src int
	at  int32
	m   message
}

// arrival is a message that reached its destination this cycle, keyed by
// the rank of the link it arrived on or, from a memory queue, by the link
// count plus its vertex.
type arrival struct {
	key int
	m   message
}

// shardCmd opens one barrier: begin (the placements) or fire (the
// generator's verdicts and the cycle-start snapshot).
type shardCmd struct {
	fire     bool
	now      int
	inj, rel []placement
	dec      []hopDecision
	ci       CycleInfo
}

// shard is one partition of a sharded run.  Its goroutine (serve) runs the
// barriers; between them the shard is idle and the coordinator reads its
// fields, ordered after the shard's writes by the done channel and before
// its next writes by the in channel.
type shard struct {
	self       int32
	owner      []int32
	links      *edgeRanker
	hop        hopper     // over the shard's own kill replica
	audit      *LinkAudit // the shard's own under Sharding.Audit
	recordHops bool       // the run has observers: report every hop

	edges   []int // ranks of the owned links, ascending; a link's slot is its index
	queues  []linkQueue
	traffic []int
	busyAt  []int   // cycle at whose start the slot was last busy
	verts   []int32 // owned vertices, ascending
	local   [][]message

	now, queuedLinks, queuedLocal, maxQueue, maxLinkLoad int
	hopsTotal, shippedTotal                              int

	// This cycle's report.
	killed   []lossRecord
	busy     []int // busy slots at the snapshot, ascending
	hops     []HopInfo
	lost     []lossRecord // Phase-1 losses
	arrivals []arrival
	reroutes int
	shipped  int // forwards handed to other shards
	doneAt   time.Time

	out    [][]boundary // outboxes per shard; out[self] holds forwards that stay
	pushes []boundary

	in   chan shardCmd
	done chan error
	xch  [][]chan []boundary
}

func (sh *shard) serve(wg *sync.WaitGroup) {
	defer wg.Done()
	for cmd := range sh.in {
		sh.now = cmd.now
		var err error
		if cmd.fire {
			err = sh.fire(cmd.dec, cmd.ci)
			// Stamped here, not at the coordinator's sequential reads:
			// the spread of these stamps is the true straggler skew.
			sh.doneAt = time.Now()
		} else {
			sh.begin(cmd.inj, cmd.rel)
		}
		sh.done <- err
	}
}

// slot returns the index of owned link e in edges and queues.
func (sh *shard) slot(e int) int {
	i, _ := slices.BinarySearch(sh.edges, e)
	return i
}

// vslot returns the index of owned vertex v in verts and local.
func (sh *shard) vslot(v int32) int {
	i, _ := slices.BinarySearch(sh.verts, v)
	return i
}

// begin queues the last cycle's emissions, replays the cycle's kills,
// queues the releases — the single-process order — and snapshots the
// busy links.
func (sh *shard) begin(inj, rel []placement) {
	sh.place(inj)
	sh.killed = sh.killed[:0]
	if f := sh.hop.faults; f != nil {
		for _, k := range f.advance(sh.now) {
			for step, l := range k.links {
				if sh.owner[l[0]] == sh.self {
					sh.flush(sh.slot(sh.links.rank(l[0], l[1])), k.idx, step)
				}
			}
			if k.vertex && sh.owner[k.u] == sh.self {
				i := sh.vslot(k.u)
				for pos, m := range sh.local[i] {
					sh.killed = append(sh.killed, lossRecord{kill: k.idx, step: len(k.links), pos: pos,
						m: m, reason: DropUnreachable, abandon: true})
				}
				sh.queuedLocal -= len(sh.local[i])
				sh.local[i] = nil
			}
		}
	}
	sh.place(rel)
	sh.busy = sh.busy[:0]
	for slot := range sh.queues {
		if sh.queues[slot].length() > 0 {
			sh.busyAt[slot] = sh.now
			sh.busy = append(sh.busy, slot)
		}
	}
}

// place queues coordinator-routed messages.
func (sh *shard) place(ps []placement) {
	for _, p := range ps {
		if p.edge < 0 {
			i := sh.vslot(p.at)
			sh.local[i] = append(sh.local[i], p.m)
			sh.queuedLocal++
			continue
		}
		q := &sh.queues[sh.slot(p.edge)]
		q.push(p.m)
		sh.queuedLinks++
		sh.maxQueue = max(sh.maxQueue, q.length())
	}
}

// flush loses every message on the owned link slot, a casualty of the
// kill at schedule position kill.
func (sh *shard) flush(slot, kill, step int) {
	q := &sh.queues[slot]
	for pos, m := range q.live() {
		sh.killed = append(sh.killed, lossRecord{kill: kill, step: step, pos: pos, m: m, reason: DropKilled})
	}
	sh.queuedLinks -= q.length()
	q.reset()
}

// fire runs the shard's Phase 1: every link busy at the snapshot moves
// exactly its head, with the coordinator's verdict dec[i] for busy link i
// when the plan draws; the forwards cross to their vertices' owners; and
// every forward landing here is queued in ascending source rank — the
// order the single-process runner produces by moving busy links in rank
// order — before the memory queues drain.
func (sh *shard) fire(dec []hopDecision, ci CycleInfo) error {
	if sh.audit != nil {
		sh.audit.OnCycleStart(ci)
	}
	sh.hops, sh.lost, sh.arrivals = sh.hops[:0], sh.lost[:0], sh.arrivals[:0]
	sh.reroutes = 0
	for j := range sh.out {
		sh.out[j] = sh.out[j][:0]
	}
	for i, slot := range sh.busy {
		m := sh.queues[slot].pop()
		sh.queuedLinks--
		e := sh.edges[slot]
		from, here := sh.links.ends[e][0], sh.links.ends[e][1]
		sh.hopsTotal++
		sh.traffic[slot]++
		sh.maxLinkLoad = max(sh.maxLinkLoad, sh.traffic[slot])
		if sh.recordHops {
			sh.hops = append(sh.hops, HopInfo{Cycle: sh.now, Edge: e, From: from, To: here,
				Seq: m.Seq, Ev: m.Ev, Backlog: sh.queues[slot].length()})
		}
		if dec != nil {
			if dec[i].drop {
				sh.lost = append(sh.lost, lossRecord{edge: e, m: m, reason: DropRandom})
				continue
			}
			m.Corrupt = m.Corrupt || dec[i].corrupt
		}
		if m.DstHost == here {
			if m.Corrupt {
				// Checksum failure at delivery: discard and nack.
				sh.lost = append(sh.lost, lossRecord{edge: e, m: m, reason: DropCorrupt})
				continue
			}
			sh.arrivals = append(sh.arrivals, arrival{key: e, m: m})
			continue
		}
		o := sh.owner[here]
		sh.out[o] = append(sh.out[o], boundary{src: e, at: here, m: m})
	}

	// Send every handoff before receiving any; the receiver copies.
	sh.shipped = 0
	for j, ch := range sh.xch[sh.self] {
		if j != int(sh.self) {
			sh.shipped += len(sh.out[j])
			ch <- sh.out[j]
		}
	}
	sh.shippedTotal += sh.shipped
	sh.pushes = append(sh.pushes[:0], sh.out[sh.self]...)
	for j := range sh.xch {
		if j != int(sh.self) {
			sh.pushes = append(sh.pushes, <-sh.xch[j][sh.self]...)
		}
	}
	slices.SortFunc(sh.pushes, func(a, b boundary) int { return cmp.Compare(a.src, b.src) })
	for _, b := range sh.pushes {
		if err := sh.push(b); err != nil {
			return err
		}
	}
	if sh.audit != nil {
		for _, h := range sh.hops {
			sh.audit.OnHop(h)
		}
	}
	for i, q := range sh.local {
		for _, m := range q {
			sh.arrivals = append(sh.arrivals, arrival{key: len(sh.links.ends) + int(sh.verts[i]), m: m})
		}
		sh.queuedLocal -= len(q)
		sh.local[i] = q[:0]
	}
	return nil
}

// push routes one forward at its arrival vertex through the shared next-hop
// policy.  The shard pops every busy link before it pushes any forward,
// while the single-process runner pushes each forward when it moves the
// forward's source link: if the target link is busy this cycle and moves
// after the source (a higher rank), that runner saw its head still queued,
// in the backlog peak and in the target's own hop record.
func (sh *shard) push(b boundary) error {
	m := b.m
	e, err := sh.hop.link(b.at, &m)
	if err != nil {
		return err
	}
	if e < 0 {
		sh.lost = append(sh.lost, lossRecord{edge: b.src, m: b.m, reason: DropUnreachable, abandon: true})
		return nil
	}
	slot := sh.slot(e)
	q := &sh.queues[slot]
	q.push(m)
	sh.queuedLinks++
	sample := q.length()
	if sh.busyAt[slot] == sh.now && e > b.src {
		sample++
		if sh.recordHops {
			i, _ := slices.BinarySearch(sh.busy, slot)
			sh.hops[i].Backlog++
		}
	}
	sh.maxQueue = max(sh.maxQueue, sample)
	return nil
}
