// Package distsim runs a netsim simulation partitioned across N shard
// workers with a two-phase epoch barrier, producing results byte-identical
// to the single-process netsim.Run.
//
// Every cycle the coordinator (1) routes the previous cycle's emissions
// and due retransmissions into per-shard placements, (2) barriers the
// workers through BeginCycle — placements applied, scheduled kills
// replayed, busy links snapshotted —, (3) replays the fault RNG over the
// merged busy-link snapshot in global edge order and hands each shard its
// verdicts, (4) barriers the workers through Fire/Apply, during which the
// workers hand boundary records directly to each other as Go values, and
// (5) merges the arrival reports, delivers to the workload in the
// deterministic Phase-2 order, and routes the responses.  The two barriers
// are what keep the one-hop-per-cycle invariant global: no worker starts
// cycle k+1 until every worker has finished the hops of cycle k.
//
// Determinism is structural, not incidental: all randomness, all sequence
// numbers, and the retransmission pool live on the coordinator; shard
// reports carry explicit order keys (global edge ranks, kill-schedule
// indices, FIFO positions) from which the coordinator reconstructs the
// exact event order of the single-process loop.
package distsim

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"xtreesim/internal/graph"
	"xtreesim/internal/netsim"
)

// MaxPartitions bounds the shard count: every shard is a goroutine, and
// the exchange matrix holds P² channels.
const MaxPartitions = 256

// Config describes one partitioned run.
type Config struct {
	// Sim is the underlying simulation config.
	Sim netsim.Config
	// Partitions is the number of shards; values ≤ 1 still run the full
	// coordinator/worker machinery with a single shard.
	Partitions int
	// Partition picks the vertex-to-shard map; nil means Blocks.
	Partition Partitioner
	// Audit attaches a per-partition LinkAudit to every shard and a
	// global one to the merged event stream; any violation fails the run.
	Audit bool
	// ShardSampler, when set, receives one ShardSample per shard per
	// executed cycle.  It is called synchronously on the coordinator
	// goroutine after the fire barrier, so it must be cheap and
	// non-blocking (publish into a telemetry ring, not a socket).
	ShardSampler func(ShardSample)
}

// ShardSample is one shard's share of one executed cycle: the live
// telemetry counterpart of the end-of-run PartitionStats.
type ShardSample struct {
	Cycle       int
	Shard       int
	Hops        int // link traversals this shard executed this cycle
	BoundaryOut int // messages this shard shipped to other shards this cycle
	// BarrierWaitNanos is how long this shard's fire report sat waiting
	// for the slowest shard of the cycle: the straggler cost of the
	// epoch barrier.  The slowest shard of a cycle reads ~0.
	BarrierWaitNanos int64
}

// PartitionStats describes one shard's share of the run.
type PartitionStats struct {
	Vertices    int // host vertices owned
	Links       int // directed links owned
	Hops        int // link traversals executed
	BoundaryOut int // messages shipped to other shards
}

// Stats describes the distribution of one run.
type Stats struct {
	Partitions       []PartitionStats
	BoundaryMessages int // total cross-shard messages
	// Deprecated: always 0.  Shards hand boundary records over as Go
	// values, so no bytes are encoded.
	BoundaryBytes int64
}

// Run simulates the workload across partitions until quiescence, exactly
// like netsim.Run but sharded.
func Run(cfg Config, wl netsim.Workload) (netsim.Result, error) {
	res, _, err := RunStats(context.Background(), cfg, wl)
	return res, err
}

// RunContext is Run with cancellation, polled once per simulated cycle.
func RunContext(ctx context.Context, cfg Config, wl netsim.Workload) (netsim.Result, error) {
	res, _, err := RunStats(ctx, cfg, wl)
	return res, err
}

// RunStats is RunContext returning per-partition statistics as well.
func RunStats(ctx context.Context, cfg Config, wl netsim.Workload) (netsim.Result, Stats, error) {
	c, err := newCoord(cfg, wl)
	if err != nil {
		return netsim.Result{}, Stats{}, err
	}
	defer c.stop()
	res, err := c.run(ctx)
	stats := c.stats()
	if err == nil && cfg.Audit {
		err = c.auditErr()
	}
	return res, stats, err
}

type poolEntry struct {
	msg     netsim.Message
	readyAt int
}

type relOutcome struct {
	msg     netsim.Message
	deadSrc bool
	lost    bool
}

type coord struct {
	sim     netsim.Config
	host    *graph.Graph
	place   []int32
	wl      netsim.Workload
	parts   int
	owner   []int32
	ranker  *netsim.EdgeRanker
	hopFn   func(cur, dst int32) int32 // from netsim.Router, shared with every shard
	fc      *netsim.FaultCoord
	obs     netsim.Observer
	sampler func(ShardSample)

	workers []*worker
	wg      sync.WaitGroup
	stopped bool

	shardAudits []*netsim.LinkAudit
	globalAudit *netsim.LinkAudit

	res       netsim.Result
	inflight  int
	emitted   int64
	latencies []int
	pool      []poolEntry
	now       int

	injNext [][]netsim.Placement // per shard, for the next BeginCycle
	pending []netsim.Event

	// Per-cycle merge buffers, reused from cycle to cycle.
	killLosses []netsim.LossRecord
	slots      []drawSlot
	losses     []netsim.LossRecord
	hops       []netsim.HopRecord
	linkArr    []netsim.ArrivalRecord
	localArr   []netsim.LocalArrival
	arrived    []netsim.Message
	order      netsim.DeliveryOrder

	maxQueue    int
	maxLinkLoad int

	boundaryOut []int // cumulative per shard
}

func newCoord(cfg Config, wl netsim.Workload) (*coord, error) {
	sim := cfg.Sim
	if sim.Host == nil || len(sim.Place) == 0 {
		return nil, fmt.Errorf("distsim: empty host or placement")
	}
	for p, h := range sim.Place {
		if h < 0 || int(h) >= sim.Host.N() {
			return nil, fmt.Errorf("distsim: process %d placed on invalid vertex %d", p, h)
		}
	}
	parts := cfg.Partitions
	if parts < 1 {
		parts = 1
	}
	if parts > MaxPartitions {
		return nil, fmt.Errorf("distsim: %d partitions exceeds the limit of %d", parts, MaxPartitions)
	}
	if parts > sim.Host.N() {
		parts = sim.Host.N()
	}
	part := cfg.Partition
	if part == nil {
		part = Blocks
	}
	owner := part(sim.Host, parts)
	if len(owner) != sim.Host.N() {
		return nil, fmt.Errorf("distsim: partitioner covered %d of %d vertices", len(owner), sim.Host.N())
	}
	for v, o := range owner {
		if o < 0 || int(o) >= parts {
			return nil, fmt.Errorf("distsim: vertex %d assigned to shard %d of %d", v, o, parts)
		}
	}
	fc, err := netsim.NewFaultCoord(sim.Faults, sim.Host)
	if err != nil {
		return nil, err
	}
	hop, err := netsim.Router(sim.Host, sim.NextHop)
	if err != nil {
		return nil, err
	}
	c := &coord{
		sim: sim, host: sim.Host, place: sim.Place, wl: wl,
		parts: parts, owner: owner, hopFn: hop, fc: fc,
		sampler:     cfg.ShardSampler,
		ranker:      netsim.NewEdgeRanker(sim.Host),
		injNext:     make([][]netsim.Placement, parts),
		boundaryOut: make([]int, parts),
	}
	obs := append([]netsim.Observer(nil), sim.Observers...)
	if cfg.Audit {
		c.globalAudit = netsim.NewLinkAudit()
		obs = append(obs, c.globalAudit)
	}
	c.obs = netsim.CombineObservers(obs)

	xch := make([][]chan handoff, parts)
	for i := range xch {
		xch[i] = make([]chan handoff, parts)
		for j := range xch[i] {
			xch[i][j] = make(chan handoff, 1)
		}
	}
	for k := 0; k < parts; k++ {
		var shardObs []netsim.Observer
		if cfg.Audit {
			a := netsim.NewLinkAudit()
			c.shardAudits = append(c.shardAudits, a)
			shardObs = append(shardObs, a)
		}
		shard, err := netsim.NewShard(netsim.ShardConfig{
			Host: sim.Host, Owner: owner, Self: int32(k), Parts: parts,
			NextHop: hop, Ranker: c.ranker,
			Faults: sim.Faults, Observers: shardObs,
			ReportActive: fc != nil && fc.HasProbs(),
			EmitHops:     c.obs != nil,
		})
		if err != nil {
			return nil, err
		}
		c.workers = append(c.workers, newWorker(k, parts, shard, xch))
	}
	for _, w := range c.workers {
		c.wg.Add(1)
		go w.run(&c.wg)
	}
	return c, nil
}

// stop shuts the workers down and waits for them; idempotent.
func (c *coord) stop() {
	if c.stopped {
		return
	}
	c.stopped = true
	for _, w := range c.workers {
		close(w.in)
	}
	c.wg.Wait()
}

func (c *coord) stats() Stats {
	c.stop() // workers must be quiesced before touching shard state
	var st Stats
	for k, w := range c.workers {
		links, verts, hops := w.shard.Totals()
		st.Partitions = append(st.Partitions, PartitionStats{
			Vertices: verts, Links: links, Hops: hops, BoundaryOut: c.boundaryOut[k],
		})
		st.BoundaryMessages += c.boundaryOut[k]
	}
	return st
}

func (c *coord) auditErr() error {
	c.stop()
	for k, a := range c.shardAudits {
		if err := a.Err(); err != nil {
			return fmt.Errorf("distsim: partition %d audit: %w", k, err)
		}
	}
	if c.globalAudit != nil {
		if err := c.globalAudit.Err(); err != nil {
			return fmt.Errorf("distsim: global audit: %w", err)
		}
	}
	return nil
}

// run executes the partitioned cycle loop.
func (c *coord) run(ctx context.Context) (netsim.Result, error) {
	maxCycles := c.sim.MaxCycles
	if maxCycles <= 0 {
		maxCycles = 1 << 20
	}
	// Kills scheduled at or before cycle 0 are dead from the start; the
	// shards replayed them at construction, the coordinator replica and
	// observers catch up here (queues are empty, so there are no losses).
	if c.fc != nil {
		for _, fk := range c.fc.AdvanceKills(0) {
			if c.obs != nil {
				c.obs.OnKill(fk.Info)
			}
		}
	}
	c.pending = c.pending[:0]
	c.wl.Init(func(ev netsim.Event) { c.pending = append(c.pending, ev) })
	if err := c.route(c.pending, 0); err != nil {
		return c.res, err
	}

	for cycle := 1; cycle <= maxCycles; cycle++ {
		select {
		case <-ctx.Done():
			c.res.Cycles = cycle - 1
			c.finishStats()
			return c.res, ctx.Err()
		default:
		}
		c.now = cycle

		// Kills fire on the coordinator replica first: the release scan
		// below must see post-kill liveness, exactly as the
		// single-process loop runs applyKills before releaseRetx.
		var fired []netsim.FiredKill
		if c.fc != nil {
			fired = c.fc.AdvanceKills(cycle)
		}
		relCmds, relOutcomes, err := c.scanReleases(cycle)
		if err != nil {
			return c.res, err
		}

		// Barrier 1: placements in, kills replayed, busy links snapshotted.
		for k, w := range c.workers {
			w.in <- workerCmd{begin: &beginCmd{cycle: cycle, inj: c.injNext[k], rel: relCmds[k]}}
			c.injNext[k] = nil
		}
		beginReps := make([]*netsim.BeginReport, c.parts)
		for k, w := range c.workers {
			rep := <-w.out
			if rep.err != nil {
				return c.res, rep.err
			}
			beginReps[k] = rep.begin
		}

		// Replay the cycle-start event order: per fired kill its OnKill
		// and flush losses, then the retransmission releases.
		killLosses := c.killLosses[:0]
		for _, rep := range beginReps {
			killLosses = append(killLosses, rep.KillLosses...)
			if rep.MaxQueue > c.maxQueue {
				c.maxQueue = rep.MaxQueue
			}
		}
		c.killLosses = killLosses
		slices.SortFunc(killLosses, func(x, y netsim.LossRecord) int {
			if x.Kill != y.Kill {
				return cmp.Compare(x.Kill, y.Kill)
			}
			if x.Step != y.Step {
				return cmp.Compare(x.Step, y.Step)
			}
			return cmp.Compare(x.Pos, y.Pos)
		})
		li := 0
		for _, fk := range fired {
			if c.obs != nil {
				c.obs.OnKill(fk.Info)
			}
			for li < len(killLosses) && killLosses[li].Kill == fk.Index {
				c.processLoss(killLosses[li])
				li++
			}
		}
		for _, ro := range relOutcomes {
			if ro.deadSrc {
				c.abandonMsg(ro.msg, cycle)
				continue
			}
			c.res.Retransmits++
			if c.obs != nil {
				c.obs.OnRetransmit(netsim.RetransmitInfo{Cycle: cycle, Seq: ro.msg.Seq,
					Ev: ro.msg.Ev, Attempt: ro.msg.Attempts})
			}
			if ro.lost {
				c.abandonMsg(ro.msg, cycle)
			}
		}

		if c.inflight == 0 {
			c.res.Cycles = cycle - 1
			c.finishStats()
			if !c.wl.Done() {
				if c.res.Unreachable > 0 {
					return c.res, fmt.Errorf("distsim: quiescent after %d cycles but workload not done (%d messages unreachable under faults)", cycle-1, c.res.Unreachable)
				}
				return c.res, fmt.Errorf("distsim: quiescent after %d cycles but workload not done", cycle-1)
			}
			return c.res, nil
		}

		queuedLinks, queuedLocal := 0, 0
		for _, rep := range beginReps {
			queuedLinks += rep.QueuedLinks
			queuedLocal += rep.QueuedLocal
		}
		ci := netsim.CycleInfo{
			Cycle: cycle, Links: c.ranker.Count(),
			Inflight: c.inflight, Emitted: c.emitted,
			Delivered: c.res.Delivered, Unreachable: c.res.Unreachable,
			QueuedLinks: queuedLinks, QueuedLocal: queuedLocal, Parked: len(c.pool),
		}
		if c.obs != nil {
			c.obs.OnCycleStart(ci)
		}

		// The fault RNG is drawn once, in ascending global edge order
		// over the merged busy-link snapshot — the exact order the
		// single-process moveHead loop consumes it.
		decs := c.drawDecisions(beginReps)

		// Barrier 2: heads move, boundary records cross, pushes land.
		for k, w := range c.workers {
			w.in <- workerCmd{fire: &fireCmd{cycle: cycle, dec: decs[k], ci: ci}}
		}
		fireReps := make([]*netsim.FireReport, c.parts)
		var doneAt []time.Time
		var lastDone time.Time
		if c.sampler != nil {
			doneAt = make([]time.Time, c.parts)
		}
		for k, w := range c.workers {
			rep := <-w.out
			if rep.err != nil {
				return c.res, rep.err
			}
			fireReps[k] = rep.fire
			c.boundaryOut[k] += rep.fire.BoundaryOut
			if c.sampler != nil {
				doneAt[k] = rep.doneAt
				if rep.doneAt.After(lastDone) {
					lastDone = rep.doneAt
				}
			}
		}
		if err := c.processFire(cycle, fireReps); err != nil {
			return c.res, err
		}
		if c.sampler != nil {
			for k, rep := range fireReps {
				c.sampler(ShardSample{
					Cycle: cycle, Shard: k, Hops: rep.HopCount,
					BoundaryOut:      rep.BoundaryOut,
					BarrierWaitNanos: lastDone.Sub(doneAt[k]).Nanoseconds(),
				})
			}
		}
	}
	c.res.Cycles = maxCycles
	c.finishStats()
	return c.res, fmt.Errorf("distsim: no quiescence within %d cycles", maxCycles)
}

// scanReleases mirrors releaseRetx: pool entries whose backoff elapsed are
// removed in park order; live sources get a placement, dead sources and
// routing failures become deferred outcomes so the events land after the
// kill events, as in the single-process order.
func (c *coord) scanReleases(cycle int) ([][]netsim.Placement, []relOutcome, error) {
	cmds := make([][]netsim.Placement, c.parts)
	if len(c.pool) == 0 {
		return cmds, nil, nil
	}
	var outcomes []relOutcome
	var keep []poolEntry
	for ord, e := range c.pool {
		if e.readyAt > cycle {
			keep = append(keep, e)
			continue
		}
		if c.fc.DeadV(e.msg.SrcHost) {
			outcomes = append(outcomes, relOutcome{msg: e.msg, deadSrc: true})
			continue
		}
		pl, lost, rerouted, err := c.placeAt(e.msg.SrcHost, e.msg, int64(ord))
		if err != nil {
			return nil, nil, err
		}
		if rerouted {
			c.res.Reroutes++
		}
		if lost {
			outcomes = append(outcomes, relOutcome{msg: e.msg, lost: true})
			continue
		}
		outcomes = append(outcomes, relOutcome{msg: pl.Msg})
		// placeAt records the queue's tail vertex in pl.Vertex, which is
		// what decides the owning shard.
		cmds[c.owner[pl.Vertex]] = append(cmds[c.owner[pl.Vertex]], pl)
	}
	c.pool = keep
	return cmds, outcomes, nil
}

// placeAt mirrors the single-process enqueue: preferred route, alive-graph
// fallback with a reroute, abandon when nothing is left.  The returned
// placement carries the queue's tail vertex in Vertex (for owner lookup)
// and the global edge rank in Edge; memory-queue placements are built by
// the caller.
func (c *coord) placeAt(at int32, w netsim.Message, ord int64) (netsim.Placement, bool, bool, error) {
	rerouted := false
	var nh int32
	if w.Rerouted {
		nh = c.fc.Next(c.host, at, w.DstHost)
	} else {
		nh = c.hopFn(at, w.DstHost)
	}
	if c.fc != nil && !w.Rerouted && nh >= 0 && c.fc.Blocked(at, nh) {
		nh = c.fc.Next(c.host, at, w.DstHost)
		if nh >= 0 {
			rerouted = true
			w.Rerouted = true
		}
	}
	if nh < 0 {
		if c.fc != nil {
			return netsim.Placement{}, true, rerouted, nil
		}
		return netsim.Placement{}, false, false, fmt.Errorf("distsim: no route from %d to %d", at, w.DstHost)
	}
	rank := c.ranker.Rank(at, nh)
	if rank < 0 {
		return netsim.Placement{}, false, false, fmt.Errorf("distsim: missing edge %d->%d", at, nh)
	}
	return netsim.Placement{Ord: ord, Edge: rank, Vertex: at, Msg: w}, false, rerouted, nil
}

// drawSlot is one busy link of the merged snapshot: the shard that owns
// it and its position in that shard's Active list.
type drawSlot struct {
	shard, pos int
	ae         netsim.ActiveEdge
}

// drawDecisions consumes the RNG over the merged busy-link snapshot.
func (c *coord) drawDecisions(reps []*netsim.BeginReport) [][]netsim.HopDecision {
	if c.fc == nil || !c.fc.HasProbs() {
		return make([][]netsim.HopDecision, c.parts)
	}
	all := c.slots[:0]
	decs := make([][]netsim.HopDecision, c.parts)
	for k, rep := range reps {
		decs[k] = make([]netsim.HopDecision, len(rep.Active))
		for pos, ae := range rep.Active {
			all = append(all, drawSlot{shard: k, pos: pos, ae: ae})
		}
	}
	c.slots = all
	slices.SortFunc(all, func(a, b drawSlot) int { return cmp.Compare(a.ae.Edge, b.ae.Edge) })
	for _, s := range all {
		d := c.fc.Decide(s.ae.HeadCorrupt)
		if d.Corrupt {
			c.res.Corruptions++
		}
		decs[s.shard][s.pos] = d
	}
	return decs
}

// processFire merges the fire reports: the global hop stream with its
// interleaved losses in edge order, then Phase-2 delivery and routing.
func (c *coord) processFire(cycle int, reps []*netsim.FireReport) error {
	losses, hops := c.losses[:0], c.hops[:0]
	linkArr, localArr := c.linkArr[:0], c.localArr[:0]
	for _, rep := range reps {
		losses = append(losses, rep.Losses...)
		hops = append(hops, rep.Hops...)
		linkArr = append(linkArr, rep.LinkArrivals...)
		localArr = append(localArr, rep.LocalArrivals...)
		c.res.Reroutes += rep.Reroutes
		c.res.HopsTotal += rep.HopCount
		if rep.MaxQueue > c.maxQueue {
			c.maxQueue = rep.MaxQueue
		}
		if rep.MaxLinkLoad > c.maxLinkLoad {
			c.maxLinkLoad = rep.MaxLinkLoad
		}
	}
	c.losses, c.hops, c.linkArr, c.localArr = losses, hops, linkArr, localArr
	slices.SortStableFunc(losses, func(a, b netsim.LossRecord) int { return cmp.Compare(a.Edge, b.Edge) })
	if c.obs != nil {
		slices.SortFunc(hops, func(a, b netsim.HopRecord) int { return cmp.Compare(a.Edge, b.Edge) })
		li := 0
		for _, h := range hops {
			c.obs.OnHop(netsim.HopInfo{Cycle: cycle, Edge: h.Edge, From: h.From, To: h.To,
				Seq: h.Seq, Ev: h.Ev, Backlog: h.Backlog})
			for li < len(losses) && losses[li].Edge == h.Edge {
				c.processLoss(losses[li])
				li++
			}
		}
		for ; li < len(losses); li++ { // defensive: losses without a hop record
			c.processLoss(losses[li])
		}
	} else {
		for _, l := range losses {
			c.processLoss(l)
		}
	}

	// Phase 2: link arrivals in edge order, then memory-queue arrivals in
	// vertex order — the single-process arrival sequence — then the
	// delivery order the single-process loop applies.
	slices.SortFunc(linkArr, func(a, b netsim.ArrivalRecord) int { return cmp.Compare(a.Edge, b.Edge) })
	slices.SortStableFunc(localArr, func(a, b netsim.LocalArrival) int { return cmp.Compare(a.Vertex, b.Vertex) })
	arrived := c.arrived[:0]
	for _, a := range linkArr {
		arrived = append(arrived, a.Msg)
	}
	for _, a := range localArr {
		arrived = append(arrived, a.Msg)
	}
	c.arrived = arrived
	c.order.Sort(arrived)
	c.pending = c.pending[:0]
	emit := func(ev netsim.Event) { c.pending = append(c.pending, ev) }
	for _, w := range arrived {
		if c.fc != nil && c.fc.DeadV(w.DstHost) {
			c.abandonMsg(w, cycle) // destination died while the message was in flight
			continue
		}
		c.inflight--
		c.res.Delivered++
		lat := cycle - w.SentAt
		c.latencies = append(c.latencies, lat)
		if c.obs != nil {
			c.obs.OnDeliver(netsim.DeliverInfo{Cycle: cycle, Host: w.DstHost, Seq: w.Seq,
				Ev: w.Ev, Latency: lat, Local: w.SrcHost == w.DstHost})
		}
		c.wl.OnMessage(w.Ev, emit)
	}
	return c.route(c.pending, cycle)
}

// route injects freshly emitted guest messages, mirroring the
// single-process route: seq assignment, dead-endpoint drops, memory-queue
// placements for co-located pairs, and routed link placements otherwise.
func (c *coord) route(evs []netsim.Event, cycle int) error {
	for _, ev := range evs {
		if int(ev.From) >= len(c.place) || int(ev.To) >= len(c.place) || ev.From < 0 || ev.To < 0 {
			return fmt.Errorf("distsim: event %v references unknown process", ev)
		}
		src, dst := c.place[ev.From], c.place[ev.To]
		seq := c.emitted
		c.emitted++
		if c.fc != nil && (c.fc.DeadV(src) || c.fc.DeadV(dst)) {
			c.res.Unreachable++
			if c.obs != nil {
				c.obs.OnDrop(netsim.DropInfo{Cycle: cycle, Seq: seq, Ev: ev, Reason: netsim.DropUnreachable})
			}
			continue
		}
		c.inflight++
		w := netsim.Message{Ev: ev, Seq: seq, SrcHost: src, DstHost: dst, SentAt: cycle}
		if src == dst {
			c.injNext[c.owner[src]] = append(c.injNext[c.owner[src]],
				netsim.Placement{Ord: seq, Edge: -1, Vertex: src, Msg: w})
			continue
		}
		pl, lost, rerouted, err := c.placeAt(src, w, seq)
		if err != nil {
			return err
		}
		if rerouted {
			c.res.Reroutes++
		}
		if lost {
			c.abandonMsg(w, cycle)
			continue
		}
		c.injNext[c.owner[pl.Vertex]] = append(c.injNext[c.owner[pl.Vertex]], pl)
	}
	return nil
}

// processLoss replays the single-process loss logic for one shard-reported
// loss: direct abandons give up immediately; everything else is nacked and
// either parked for retransmission or abandoned when the budget is spent.
func (c *coord) processLoss(rec netsim.LossRecord) {
	if rec.Abandon {
		c.abandonMsg(rec.Msg, rec.Cycle)
		return
	}
	w := rec.Msg
	if rec.Reason != netsim.DropCorrupt {
		c.res.Drops++
	}
	if c.obs != nil {
		c.obs.OnDrop(netsim.DropInfo{Cycle: rec.Cycle, Seq: w.Seq, Ev: w.Ev,
			Reason: rec.Reason, Attempt: w.Attempts})
	}
	w.Corrupt = false
	w.Attempts++
	if w.Attempts > c.fc.MaxRetries() {
		c.abandonMsg(w, rec.Cycle)
		return
	}
	shift := w.Attempts - 1
	if shift > 20 {
		shift = 20
	}
	c.pool = append(c.pool, poolEntry{msg: w, readyAt: rec.Cycle + c.fc.BackoffBase()<<shift})
}

// abandonMsg gives up on a message for good.
func (c *coord) abandonMsg(w netsim.Message, cycle int) {
	c.res.Unreachable++
	c.inflight--
	if c.obs != nil {
		c.obs.OnDrop(netsim.DropInfo{Cycle: cycle, Seq: w.Seq, Ev: w.Ev,
			Reason: netsim.DropUnreachable, Attempt: w.Attempts})
	}
}

// finishStats folds the running maxima and latency percentiles into the
// result, mirroring the single-process finishStats.
func (c *coord) finishStats() {
	c.res.MaxQueue = c.maxQueue
	c.res.MaxLinkLoad = c.maxLinkLoad
	if len(c.latencies) == 0 {
		return
	}
	sort.Ints(c.latencies)
	c.res.LatencyP50 = c.latencies[len(c.latencies)/2]
	c.res.LatencyP99 = c.latencies[len(c.latencies)*99/100]
	c.res.LatencyMax = c.latencies[len(c.latencies)-1]
}
