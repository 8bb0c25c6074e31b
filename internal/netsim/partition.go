package netsim

// Partition support: the building blocks the distsim runner composes into
// a sharded simulation that is byte-identical to the single-process loop.
//
// The split of responsibilities is chosen so that every decision that
// depends on *global* order stays on the coordinator, and everything that
// only touches *owned* state runs on shard workers:
//
//   - The coordinator owns the Workload, seq assignment, the fault RNG
//     (drop/corrupt draws happen in ascending global edge order, exactly
//     as the single-process loop consumes them), the retransmission pool
//     (park order is reconstructed from deterministic loss keys), routing
//     of fresh emissions and retransmissions, and the global observers.
//   - A Shard owns the link queues whose tail vertex it owns, the memory
//     queues of its owned vertices, and the Phase-1 forwarding decisions
//     at owned vertices (alive-graph rerouting replays deterministically
//     from the shared kill schedule, so shards never touch the RNG).
//
// Messages crossing a partition boundary travel as Boundary records,
// which the distsim workers hand to each other as Go values.  Apply
// sorts all incoming pushes by their source-edge rank, which reproduces
// the FIFO order the single-process loop produces by scanning active
// edges in ascending index order.

import (
	"cmp"
	"fmt"
	"slices"

	"xtreesim/internal/graph"
)

// CombineObservers folds a list of observers into one, dropping nils; it
// returns nil when nothing is attached.
func CombineObservers(obs []Observer) Observer { return combineObservers(obs) }

// Placement is a routing decision made by the coordinator: put Msg on the
// link queue with global rank Edge, or (Edge < 0) on the memory queue of
// Vertex.  Injections and retransmission releases arrive as placements so
// shards never have to re-derive the coordinator's routing.
type Placement struct {
	Ord    int64 // deterministic order key (seq, or retx-pool position)
	Edge   int   // global directed-edge rank; -1 for a memory-queue placement
	Vertex int32 // destination vertex for memory-queue placements
	Msg    Message
}

// Boundary is one Phase-1 forward: the head of source edge SrcEdge moved
// to vertex At and must be enqueued on At's outgoing link toward its
// destination by At's owner.
type Boundary struct {
	SrcEdge int   // global rank of the edge the message just crossed
	At      int32 // vertex the message now sits on (owned by the receiver)
	Msg     Message
}

// ActiveEdge is one busy link in a shard's cycle-start snapshot, reported
// so the coordinator can draw the fault RNG in global edge order.
type ActiveEdge struct {
	Edge        int  // global rank
	HeadCorrupt bool // head message already corrupt (skips the corrupt draw)
}

// HopDecision is the coordinator's RNG verdict for one active edge.
type HopDecision struct {
	Drop    bool
	Corrupt bool
}

// KillLocalStep orders a dying vertex's memory-queue abandons after all of
// its link flushes, matching the single-process applyKills order.
const KillLocalStep = 1 << 30

// LossRecord describes one message instance lost on a shard.  The
// coordinator replays the single-process loss logic (nack, park, abandon)
// from these records; the key fields reconstruct the exact park order.
type LossRecord struct {
	Cycle int // cycle stamp for the observer event
	// Kill-flush losses sort by (Kill, Step, Pos): the schedule index of
	// the kill, the flush step within it (per-neighbor directions for a
	// vertex kill, 0/1 for a link kill, KillLocalStep for memory-queue
	// abandons), and the FIFO position within one flushed queue.
	Kill, Step, Pos int
	// Hop-phase losses sort by the global rank of the source edge.
	Edge int
	// Placement losses sort by Ord.
	Ord     int64
	Msg     Message
	Reason  DropReason
	Abandon bool // direct abandon (no nack/park), e.g. no alive route left
}

// HopRecord is one Phase-1 hop on a shard, reported so the coordinator
// can emit the global OnHop stream in ascending edge order.
type HopRecord struct {
	Edge     int
	From, To int32
	Seq      int64
	Ev       Event
	Backlog  int
}

// ArrivalRecord is a message that reached its destination vertex via a
// link hop this cycle, keyed by the edge it arrived on.
type ArrivalRecord struct {
	Edge int
	Msg  Message
}

// LocalArrival is a message delivered through a same-vertex memory queue
// this cycle, keyed by the vertex (FIFO within one vertex).
type LocalArrival struct {
	Vertex int32
	Msg    Message
}

// BeginReport is a shard's answer to the first barrier of a cycle, after
// it applied placements, replayed due kills, and snapshotted busy links.
type BeginReport struct {
	KillLosses  []LossRecord
	Active      []ActiveEdge // ascending global rank; only when requested
	QueuedLinks int          // absolute, after Begin
	QueuedLocal int
	MaxQueue    int // running maximum
}

// FireReport is a shard's answer to the second barrier, after Phase-1
// movement and the boundary exchange.
type FireReport struct {
	Hops          []HopRecord  // ascending edge rank; only when EmitHops
	Losses        []LossRecord // hop drops/corrupt discards + push abandons, by Edge
	Reroutes      int          // alive-graph diversions during this cycle's pushes
	LinkArrivals  []ArrivalRecord
	LocalArrivals []LocalArrival
	HopCount      int // hops this cycle
	BoundaryOut   int // messages handed to other shards this cycle
	MaxQueue      int // running maximum
	MaxLinkLoad   int // running maximum over owned links
}

// ShardConfig configures one partition executor.
type ShardConfig struct {
	Host  *graph.Graph
	Owner []int32 // vertex -> owning shard
	Self  int32
	Parts int
	// NextHop is the run's hop function, built once by Router and
	// shared read-only by every shard and the coordinator.
	NextHop func(cur, dst int32) int32
	// Ranker must be shared across shards and the coordinator so edge
	// ranks agree; nil builds a private one.
	Ranker *EdgeRanker
	// Faults is the run's plan; the shard replays the kill schedule into
	// a private replica (the RNG inside it is never drawn).
	Faults *FaultPlan
	// Observers are per-partition observers (e.g. a LinkAudit).  They
	// receive OnCycleStart with the *global* counter snapshot and OnHop
	// for owned edges; other hooks fire on the coordinator's observers.
	Observers []Observer
	// ReportActive asks Begin to report the busy-link snapshot (needed
	// only when the plan has drop/corrupt probabilities).
	ReportActive bool
	// EmitHops asks Apply to report hop records (needed only when the
	// coordinator has observers attached).
	EmitHops bool
}

// Shard executes one partition of the host: the link queues whose tail
// vertex it owns and the memory queues of its owned vertices.  All methods
// are driven by the distsim coordinator; a Shard is not safe for
// concurrent use by multiple goroutines.
type Shard struct {
	host   *graph.Graph
	owner  []int32
	self   int32
	parts  int
	hopFn  func(cur, dst int32) int32
	ranker *EdgeRanker
	faults *faultState
	obs    Observer

	reportActive bool
	emitHops     bool
	needHops     bool

	edges    []int       // global ranks of owned edges, ascending
	edgeTo   []int32     // head vertex per owned slot
	edgeFrom []int32     // tail vertex per owned slot
	slotOf   map[int]int // global rank -> owned slot
	queues   []linkQueue
	traffic  []int
	local    map[int32][]Message

	queuedLinks int
	queuedLocal int
	maxQueue    int
	maxLinkLoad int
	hopsTotal   int

	now          int
	active       []int // owned slots busy this cycle, ascending
	activeStamp  []int // cycle number when the slot was last snapshotted busy
	hopRecs      []HopRecord
	fireLosses   []LossRecord
	linkArr      []ArrivalRecord
	selfPend     []Boundary    // forwards that stay on this shard
	pushSrc      map[int][]int // owned slot -> src ranks pushed this cycle
	scratchVerts []int32
}

// NewShard builds the executor for partition cfg.Self and replays any
// kills scheduled at or before cycle 0, mirroring the single-process
// pre-loop applyKills.
func NewShard(cfg ShardConfig) (*Shard, error) {
	if cfg.Host == nil || len(cfg.Owner) != cfg.Host.N() {
		return nil, fmt.Errorf("netsim: shard owner map covers %d of %d vertices", len(cfg.Owner), cfg.Host.N())
	}
	if cfg.Parts <= 0 || cfg.Self < 0 || int(cfg.Self) >= cfg.Parts {
		return nil, fmt.Errorf("netsim: shard %d outside %d partitions", cfg.Self, cfg.Parts)
	}
	if cfg.NextHop == nil {
		return nil, fmt.Errorf("netsim: shard needs the run's NextHop router")
	}
	sh := &Shard{
		host: cfg.Host, owner: cfg.Owner, self: cfg.Self, parts: cfg.Parts,
		hopFn: cfg.NextHop, ranker: cfg.Ranker,
		obs:          combineObservers(cfg.Observers),
		reportActive: cfg.ReportActive, emitHops: cfg.EmitHops,
		slotOf:  make(map[int]int),
		local:   make(map[int32][]Message),
		pushSrc: make(map[int][]int),
	}
	sh.needHops = sh.emitHops || sh.obs != nil
	if sh.ranker == nil {
		sh.ranker = NewEdgeRanker(cfg.Host)
	}
	if cfg.Faults != nil {
		fs, err := newFaultState(cfg.Faults, cfg.Host)
		if err != nil {
			return nil, err
		}
		sh.faults = fs // nil when inert
	}
	rank := 0
	for u := 0; u < cfg.Host.N(); u++ {
		deg := len(cfg.Host.Neighbors(u))
		if cfg.Owner[u] == cfg.Self {
			ns := sortedNeighbors(cfg.Host, u)
			for _, v := range ns {
				sh.slotOf[rank] = len(sh.edges)
				sh.edges = append(sh.edges, rank)
				sh.edgeFrom = append(sh.edgeFrom, int32(u))
				sh.edgeTo = append(sh.edgeTo, v)
				rank++
			}
		} else {
			rank += deg
		}
	}
	sh.queues = make([]linkQueue, len(sh.edges))
	sh.traffic = make([]int, len(sh.edges))
	sh.activeStamp = make([]int, len(sh.edges))
	for i := range sh.activeStamp {
		sh.activeStamp[i] = -1
	}
	// Kills scheduled at or before cycle 0 are dead from the start; the
	// queues are empty so the replay cannot produce losses.
	var boot BeginReport
	sh.replayKills(0, &boot)
	if len(boot.KillLosses) > 0 {
		return nil, fmt.Errorf("netsim: shard %d lost %d messages replaying boot kills on empty queues", cfg.Self, len(boot.KillLosses))
	}
	return sh, nil
}

// BeginCycle applies the coordinator's placements (fresh injections from
// the previous cycle's route step, then due kills, then retransmission
// releases — the single-process order), and snapshots the busy links.
func (sh *Shard) BeginCycle(cycle int, inj, rel []Placement) (BeginReport, error) {
	sh.now = cycle
	var rep BeginReport
	for _, p := range inj {
		if err := sh.place(p); err != nil {
			return rep, err
		}
	}
	sh.replayKills(cycle, &rep)
	for _, p := range rel {
		if err := sh.place(p); err != nil {
			return rep, err
		}
	}
	sh.active = sh.active[:0]
	for slot := range sh.queues {
		if sh.queues[slot].length() == 0 {
			continue
		}
		sh.activeStamp[slot] = cycle
		sh.active = append(sh.active, slot)
		if sh.reportActive {
			rep.Active = append(rep.Active, ActiveEdge{
				Edge:        sh.edges[slot],
				HeadCorrupt: sh.queues[slot].live()[0].Corrupt,
			})
		}
	}
	rep.QueuedLinks = sh.queuedLinks
	rep.QueuedLocal = sh.queuedLocal
	rep.MaxQueue = sh.maxQueue
	return rep, nil
}

// place puts one coordinator-routed message on its queue.
func (sh *Shard) place(p Placement) error {
	if p.Edge < 0 {
		if sh.owner[p.Vertex] != sh.self {
			return fmt.Errorf("netsim: shard %d asked to hold memory queue of vertex %d owned by %d", sh.self, p.Vertex, sh.owner[p.Vertex])
		}
		sh.local[p.Vertex] = append(sh.local[p.Vertex], p.Msg)
		sh.queuedLocal++
		return nil
	}
	slot, ok := sh.slotOf[p.Edge]
	if !ok {
		return fmt.Errorf("netsim: shard %d asked to fill unowned edge rank %d", sh.self, p.Edge)
	}
	sh.queues[slot].push(p.Msg)
	sh.queuedLinks++
	if l := sh.queues[slot].length(); l > sh.maxQueue {
		sh.maxQueue = l
	}
	return nil
}

// replayKills fires every kill scheduled at or before cycle on the shard's
// fault replica, flushing owned queues and recording the losses with keys
// that reconstruct the single-process flush order.
func (sh *Shard) replayKills(cycle int, rep *BeginReport) {
	f := sh.faults
	if f == nil {
		return
	}
	changed := false
	for f.killIdx < len(f.kills) && f.kills[f.killIdx].cycle <= cycle {
		k := f.kills[f.killIdx]
		idx := f.killIdx
		f.killIdx++
		if k.vertex {
			if f.deadV[k.u] {
				continue
			}
			f.deadV[k.u] = true
			for nbPos, nb := range sh.host.Neighbors(int(k.u)) {
				f.deadE[ekey(k.u, nb)] = true
				f.deadE[ekey(nb, k.u)] = true
				sh.flushOwned(k.u, nb, cycle, idx, 2*nbPos, rep)
				sh.flushOwned(nb, k.u, cycle, idx, 2*nbPos+1, rep)
			}
			if sh.owner[k.u] == sh.self {
				if q := sh.local[k.u]; len(q) > 0 {
					for pos, m := range q {
						rep.KillLosses = append(rep.KillLosses, LossRecord{
							Cycle: cycle, Kill: idx, Step: KillLocalStep, Pos: pos,
							Msg: m, Reason: DropUnreachable, Abandon: true,
						})
					}
					sh.queuedLocal -= len(q)
					delete(sh.local, k.u)
				}
			}
		} else {
			if f.deadE[ekey(k.u, k.v)] {
				continue // duplicate schedule entry
			}
			f.deadE[ekey(k.u, k.v)] = true
			f.deadE[ekey(k.v, k.u)] = true
			sh.flushOwned(k.u, k.v, cycle, idx, 0, rep)
			sh.flushOwned(k.v, k.u, cycle, idx, 1, rep)
		}
		changed = true
	}
	if changed {
		f.nh = make(map[int32][]int32) // alive-graph routes are stale
	}
}

// flushOwned loses every message queued on the directed edge u→v when this
// shard owns it.
func (sh *Shard) flushOwned(u, v int32, cycle, kill, step int, rep *BeginReport) {
	if sh.owner[u] != sh.self {
		return
	}
	rank := sh.ranker.Rank(u, v)
	if rank < 0 {
		return
	}
	slot := sh.slotOf[rank]
	q := &sh.queues[slot]
	n := q.length()
	if n == 0 {
		return
	}
	for pos, m := range q.live() {
		rep.KillLosses = append(rep.KillLosses, LossRecord{
			Cycle: cycle, Kill: kill, Step: step, Pos: pos,
			Msg: m, Reason: DropKilled,
		})
	}
	q.reset()
	sh.queuedLinks -= n
}

// Fire executes the pop half of Phase 1: every link busy at the snapshot
// moves exactly its head.  dec, when non-nil, carries the coordinator's
// RNG verdicts aligned with the Active snapshot order.  The returned
// outboxes (one per shard, self included) carry the forwards; the caller
// exchanges them and feeds the union to Apply.
func (sh *Shard) Fire(cycle int, dec []HopDecision, ci CycleInfo) [][]Boundary {
	sh.now = cycle
	if sh.obs != nil {
		sh.obs.OnCycleStart(ci)
	}
	out := make([][]Boundary, sh.parts)
	sh.hopRecs = sh.hopRecs[:0]
	sh.fireLosses = sh.fireLosses[:0]
	sh.linkArr = sh.linkArr[:0]
	sh.selfPend = sh.selfPend[:0]
	for i, slot := range sh.active {
		m := sh.queues[slot].pop()
		sh.queuedLinks--
		rank := sh.edges[slot]
		here := sh.edgeTo[slot]
		sh.hopsTotal++
		sh.traffic[slot]++
		if sh.traffic[slot] > sh.maxLinkLoad {
			sh.maxLinkLoad = sh.traffic[slot]
		}
		if sh.needHops {
			sh.hopRecs = append(sh.hopRecs, HopRecord{
				Edge: rank, From: sh.edgeFrom[slot], To: here,
				Seq: m.Seq, Ev: m.Ev, Backlog: sh.queues[slot].length(),
			})
		}
		if dec != nil {
			d := dec[i]
			if d.Drop {
				sh.fireLosses = append(sh.fireLosses, LossRecord{
					Cycle: cycle, Edge: rank, Msg: m, Reason: DropRandom})
				continue
			}
			if d.Corrupt {
				m.Corrupt = true
			}
		}
		if m.DstHost == here {
			if m.Corrupt {
				// Checksum failure at delivery: discard and nack.
				sh.fireLosses = append(sh.fireLosses, LossRecord{
					Cycle: cycle, Edge: rank, Msg: m, Reason: DropCorrupt})
				continue
			}
			sh.linkArr = append(sh.linkArr, ArrivalRecord{Edge: rank, Msg: m})
			continue
		}
		b := Boundary{SrcEdge: rank, At: here, Msg: m}
		if owner := sh.owner[here]; owner == sh.self {
			sh.selfPend = append(sh.selfPend, b)
		} else {
			out[owner] = append(out[owner], b)
		}
	}
	return out
}

// Apply executes the push half of Phase 1: every forward whose arrival
// vertex this shard owns (self pends plus everything received over the
// exchange) is enqueued in ascending source-edge order — the order the
// single-process loop produces by scanning active edges — then the memory
// queues drain and the report is assembled.
func (sh *Shard) Apply(cycle int, incoming []Boundary) (FireReport, error) {
	pushes := append(sh.selfPend, incoming...)
	slices.SortFunc(pushes, func(a, b Boundary) int { return cmp.Compare(a.SrcEdge, b.SrcEdge) })
	for k := range sh.pushSrc {
		delete(sh.pushSrc, k)
	}
	rep := FireReport{
		LinkArrivals: append([]ArrivalRecord(nil), sh.linkArr...),
		HopCount:     len(sh.active),
	}
	rep.Losses = append(rep.Losses, sh.fireLosses...)
	for _, b := range pushes {
		if sh.owner[b.At] != sh.self {
			return rep, fmt.Errorf("netsim: shard %d received forward for vertex %d owned by %d", sh.self, b.At, sh.owner[b.At])
		}
		lost, rerouted, err := sh.push(b)
		if err != nil {
			return rep, err
		}
		if rerouted {
			rep.Reroutes++
		}
		if lost {
			rep.Losses = append(rep.Losses, LossRecord{
				Cycle: cycle, Edge: b.SrcEdge, Msg: b.Msg,
				Reason: DropUnreachable, Abandon: true,
			})
		}
	}
	// A hop's Backlog is the queue length just after its pop in the
	// single-process interleaving: the post-pop length plus every push
	// from a lower-ranked source edge that had already landed.
	if sh.needHops {
		for i := range sh.hopRecs {
			h := &sh.hopRecs[i]
			slot := sh.slotOf[h.Edge]
			for _, src := range sh.pushSrc[slot] {
				if src < h.Edge {
					h.Backlog++
				}
			}
		}
		if sh.obs != nil {
			for _, h := range sh.hopRecs {
				sh.obs.OnHop(HopInfo{Cycle: cycle, Edge: h.Edge, From: h.From, To: h.To,
					Seq: h.Seq, Ev: h.Ev, Backlog: h.Backlog})
			}
		}
		if sh.emitHops {
			rep.Hops = append(rep.Hops, sh.hopRecs...)
		}
	}
	// Memory queues drain every cycle, in ascending vertex order.
	sh.scratchVerts = sh.scratchVerts[:0]
	for v, q := range sh.local {
		if len(q) > 0 {
			sh.scratchVerts = append(sh.scratchVerts, v)
		}
	}
	slices.Sort(sh.scratchVerts)
	for _, v := range sh.scratchVerts {
		for _, m := range sh.local[v] {
			rep.LocalArrivals = append(rep.LocalArrivals, LocalArrival{Vertex: v, Msg: m})
		}
		sh.queuedLocal -= len(sh.local[v])
		sh.local[v] = sh.local[v][:0]
	}
	slices.SortStableFunc(rep.Losses, func(a, b LossRecord) int { return cmp.Compare(a.Edge, b.Edge) })
	rep.MaxQueue = sh.maxQueue
	rep.MaxLinkLoad = sh.maxLinkLoad
	return rep, nil
}

// push routes one Phase-1 forward at its arrival vertex, mirroring the
// single-process enqueue (preferred route, alive-graph fallback, abandon
// when no alive route remains).  The MaxQueue sample is corrected for the
// pop-all-then-push execution order: if the target link was busy this
// cycle and its own pop (which happens at its rank) comes after this push
// (which happens at the source rank), the single-process loop would have
// seen one more message on the queue.
func (sh *Shard) push(b Boundary) (lost, rerouted bool, err error) {
	m := b.Msg
	at := b.At
	var nh int32
	if m.Rerouted {
		nh = sh.faults.next(sh.host, at, m.DstHost)
	} else {
		nh = sh.hopFn(at, m.DstHost)
	}
	if sh.faults != nil && !m.Rerouted && nh >= 0 && sh.faults.blocked(at, nh) {
		nh = sh.faults.next(sh.host, at, m.DstHost)
		if nh >= 0 {
			rerouted = true
			m.Rerouted = true
		}
	}
	if nh < 0 {
		if sh.faults != nil {
			return true, rerouted, nil
		}
		return false, false, fmt.Errorf("netsim: no route from %d to %d", at, m.DstHost)
	}
	rank := sh.ranker.Rank(at, nh)
	if rank < 0 {
		return false, false, fmt.Errorf("netsim: missing edge %d->%d", at, nh)
	}
	slot, ok := sh.slotOf[rank]
	if !ok {
		return false, false, fmt.Errorf("netsim: shard %d does not own edge %d->%d", sh.self, at, nh)
	}
	sh.queues[slot].push(m)
	sh.queuedLinks++
	sh.pushSrc[slot] = append(sh.pushSrc[slot], b.SrcEdge)
	sample := sh.queues[slot].length()
	if sh.activeStamp[slot] == sh.now && rank > b.SrcEdge {
		sample++
	}
	if sample > sh.maxQueue {
		sh.maxQueue = sample
	}
	return false, rerouted, nil
}

// FiredKill is one scheduled kill that actually took effect (duplicates in
// the schedule fire once).
type FiredKill struct {
	Index int // position in the normalized schedule; matches LossRecord.Kill
	Info  KillInfo
}

// FaultCoord is the coordinator's half of the fault layer: it owns the
// RNG, the kill replica used for routing and dead-endpoint checks, and the
// retransmission policy knobs.  Shards replay the same schedule locally;
// only the coordinator ever draws randomness.
type FaultCoord struct {
	fs    *faultState
	hostG *graph.Graph
}

// NewFaultCoord validates the plan and builds the coordinator replica, or
// returns (nil, nil) for a nil/inert plan.
func NewFaultCoord(p *FaultPlan, host *graph.Graph) (*FaultCoord, error) {
	if p == nil {
		return nil, nil
	}
	fs, err := newFaultState(p, host)
	if err != nil || fs == nil {
		return nil, err
	}
	return &FaultCoord{fs: fs, hostG: host}, nil
}

// HasProbs reports whether the plan draws per-hop randomness at all.
func (f *FaultCoord) HasProbs() bool {
	return f.fs.plan.DropProb > 0 || f.fs.plan.CorruptProb > 0
}

// MaxRetries and BackoffBase expose the normalized retransmission knobs.
func (f *FaultCoord) MaxRetries() int  { return f.fs.plan.MaxRetries }
func (f *FaultCoord) BackoffBase() int { return f.fs.plan.BackoffBase }

// DeadV reports whether vertex v has been killed as of the last
// AdvanceKills call.
func (f *FaultCoord) DeadV(v int32) bool { return f.fs.deadV[v] }

// Blocked reports whether the directed hop u→v is unusable.
func (f *FaultCoord) Blocked(u, v int32) bool { return f.fs.blocked(u, v) }

// Next returns the alive-graph next hop from at toward dst, or -1.
func (f *FaultCoord) Next(host *graph.Graph, at, dst int32) int32 {
	return f.fs.next(host, at, dst)
}

// AdvanceKills fires every kill scheduled at or before cycle on the
// coordinator replica and returns the ones that took effect, in schedule
// order, with the dedup the single-process loop applies.
func (f *FaultCoord) AdvanceKills(cycle int) []FiredKill {
	fs := f.fs
	var fired []FiredKill
	changed := false
	for fs.killIdx < len(fs.kills) && fs.kills[fs.killIdx].cycle <= cycle {
		k := fs.kills[fs.killIdx]
		idx := fs.killIdx
		fs.killIdx++
		if k.vertex {
			if fs.deadV[k.u] {
				continue
			}
			fs.deadV[k.u] = true
			for _, nb := range f.hostG.Neighbors(int(k.u)) {
				fs.deadE[ekey(k.u, nb)] = true
				fs.deadE[ekey(nb, k.u)] = true
			}
			fired = append(fired, FiredKill{Index: idx, Info: KillInfo{Cycle: cycle, Vertex: true, U: k.u, V: k.u}})
		} else {
			if fs.deadE[ekey(k.u, k.v)] {
				continue
			}
			fs.deadE[ekey(k.u, k.v)] = true
			fs.deadE[ekey(k.v, k.u)] = true
			fired = append(fired, FiredKill{Index: idx, Info: KillInfo{Cycle: cycle, U: k.u, V: k.v}})
		}
		changed = true
	}
	if changed {
		fs.nh = make(map[int32][]int32)
	}
	return fired
}

// Decide draws the per-hop fault verdict for one active edge, in the same
// RNG order the single-process moveHead consumes: a drop draw when
// DropProb > 0, then a corrupt draw when the message survives, is not
// already corrupt, and CorruptProb > 0.
func (f *FaultCoord) Decide(headCorrupt bool) HopDecision {
	fs := f.fs
	var d HopDecision
	if fs.plan.DropProb > 0 && fs.rng.Float64() < fs.plan.DropProb {
		d.Drop = true
		return d
	}
	if fs.plan.CorruptProb > 0 && !headCorrupt && fs.rng.Float64() < fs.plan.CorruptProb {
		d.Corrupt = true
	}
	return d
}

// EdgeRanker assigns every directed edge its global rank in the
// deterministic enumeration the simulator uses (tail vertices ascending,
// head vertices ascending within a tail).  Ranks are what boundary
// messages are keyed by, so every shard and the coordinator must share
// one enumeration.
type EdgeRanker struct {
	host *graph.Graph
	base []int     // base[u] = rank of u's first outgoing edge
	adj  [][]int32 // sorted neighbor lists (shared with host when presorted)
	m    int
}

// NewEdgeRanker builds the enumeration for host.
func NewEdgeRanker(host *graph.Graph) *EdgeRanker {
	n := host.N()
	r := &EdgeRanker{host: host, base: make([]int, n+1), adj: make([][]int32, n)}
	rank := 0
	for u := 0; u < n; u++ {
		r.base[u] = rank
		ns := host.Neighbors(u)
		if !slices.IsSorted(ns) {
			ns = sortedNeighbors(host, u)
		}
		r.adj[u] = ns
		rank += len(ns)
	}
	r.base[n] = rank
	r.m = rank
	return r
}

// Count returns the number of directed edges.
func (r *EdgeRanker) Count() int { return r.m }

// Rank returns the global rank of the directed edge u→v, or -1 when the
// edge does not exist.
func (r *EdgeRanker) Rank(u, v int32) int {
	if i, ok := slices.BinarySearch(r.adj[u], v); ok {
		return r.base[u] + i
	}
	return -1
}

// Totals reports the shard's cumulative execution counters: the number of
// owned directed links, owned vertices, and link traversals executed.
// Only safe to call once the driving goroutine has stopped.
func (sh *Shard) Totals() (ownedLinks, ownedVertices, hops int) {
	for _, o := range sh.owner {
		if o == sh.self {
			ownedVertices++
		}
	}
	return len(sh.edges), ownedVertices, sh.hopsTotal
}

// sortedNeighbors returns an ascending copy of u's neighbor list.
func sortedNeighbors(host *graph.Graph, u int) []int32 {
	ns := slices.Clone(host.Neighbors(u))
	slices.Sort(ns)
	return ns
}
