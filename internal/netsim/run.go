package netsim

import (
	"context"
	"fmt"
)

// run is the guest-level bookkeeping of one simulation: the workload,
// sequence numbers, the in-flight count, latencies, the retransmission
// pool, the observers and the run's fault replica.  What happens to a
// guest message between its emission and its delivery is decided here
// once; the coordinator (shard.go) drives it with one or more shards,
// which own the link and memory queues and move them in Phase 1.
type run struct {
	place     []int32 // guest process -> host vertex
	wl        Workload
	links     *edgeRanker
	hop       hopper      // routes admissions and retransmissions
	faults    *faultState // nil on a fault-free run
	obs       Observer    // nil when no observers are attached
	maxCycles int

	res       Result
	now       int // current cycle
	inflight  int
	emitted   int64 // guest events accepted so far; doubles as the next seq
	latencies latencies
	retx      []retx

	emit    func(Event) // appends to pending; handed to the workload
	pending []Event
	// Routed messages waiting for the next begin, per owning shard: the
	// admitted ones and the released retransmissions.
	owner    []int32 // host vertex -> shard
	inj, rel [][]placement
	resent   []resend // this cycle's releases, for retransmit
}

// placement is a routed message waiting for its queue: the link with rank
// edge, whose tail is at, or (edge < 0) the memory queue of vertex at.
type placement struct {
	edge int
	at   int32
	m    message
}

// retx is a lost message parked until its retransmission cycle.
type retx struct {
	m       message
	readyAt int
}

// resend is one parked message whose backoff elapsed this cycle.
type resend struct {
	m       message
	deadSrc bool // the source died: abandoned without a retransmission
	lost    bool // no alive route is left
}

// newRun validates cfg and builds the run's bookkeeping.
func newRun(cfg Config, wl Workload) (*run, error) {
	if cfg.Host == nil || len(cfg.Place) == 0 {
		return nil, fmt.Errorf("netsim: empty host or placement")
	}
	for p, h := range cfg.Place {
		if h < 0 || int(h) >= cfg.Host.N() {
			return nil, fmt.Errorf("netsim: process %d placed on invalid vertex %d", p, h)
		}
	}
	r := &run{place: cfg.Place, wl: wl,
		obs: combineObservers(cfg.Observers), maxCycles: cfg.MaxCycles}
	if r.maxCycles <= 0 {
		r.maxCycles = 1 << 20
	}
	if cfg.Faults != nil {
		fs, err := newFaultState(cfg.Faults, cfg.Host)
		if err != nil {
			return nil, err
		}
		r.faults = fs // nil when the plan is inert
	}
	next, err := router(cfg.Host, cfg.NextHop)
	if err != nil {
		return nil, err
	}
	// Runs on an X-tree host from OnXTree share its height's ranker.
	if r.links = sharedLinks(cfg.Host); r.links == nil {
		r.links = newEdgeRanker(cfg.Host)
	}
	r.hop = hopper{next: next, links: r.links, faults: r.faults, reroutes: &r.res.Reroutes}
	r.emit = func(ev Event) { r.pending = append(r.pending, ev) }
	return r, nil
}

// cycles runs the simulation from boot until quiescence, the cycle cap or
// cancellation; the context is polled once per simulated cycle.  A run
// that goes quiescent before the workload reports Done is a deadlock and
// errors.
func (c *coord) cycles(ctx context.Context) (Result, error) {
	r := c.run
	// Kills scheduled at or before cycle 0 are dead from the start.
	if _, _, err := c.begin(); err != nil {
		return r.res, err
	}
	r.wl.Init(r.emit)
	if err := r.admit(); err != nil {
		return r.res, err
	}
	for cycle := 1; cycle <= r.maxCycles; cycle++ {
		select {
		case <-ctx.Done():
			r.finish(cycle - 1)
			return r.res, ctx.Err()
		default:
		}
		r.now = cycle
		queuedLinks, queuedLocal, err := c.begin()
		if err != nil {
			return r.res, err
		}
		if r.inflight == 0 {
			r.finish(cycle - 1)
			if r.wl.Done() {
				return r.res, nil
			}
			if r.res.Unreachable > 0 {
				return r.res, fmt.Errorf("netsim: quiescent after %d cycles but workload not done (%d messages unreachable under faults)", cycle-1, r.res.Unreachable)
			}
			return r.res, fmt.Errorf("netsim: quiescent after %d cycles but workload not done", cycle-1)
		}
		if r.obs != nil {
			r.obs.OnCycleStart(CycleInfo{
				Cycle:       cycle,
				Links:       len(r.links.ends),
				Inflight:    r.inflight,
				Emitted:     r.emitted,
				Delivered:   r.res.Delivered,
				Unreachable: r.res.Unreachable,
				QueuedLinks: queuedLinks,
				QueuedLocal: queuedLocal,
				Parked:      len(r.retx),
			})
		}
		if err := c.step(); err != nil {
			return r.res, err
		}
	}
	// The cap burned every cycle: report them, don't leave Cycles at 0.
	r.finish(r.maxCycles)
	return r.res, fmt.Errorf("netsim: no quiescence within %d cycles", r.maxCycles)
}

// admit assigns the events in r.pending their sequence numbers and routes
// them into r.inj: a message with a dead endpoint is unreachable at
// once, one between co-located processes goes to the memory queue of
// their vertex, and any other takes the first link of its route.
func (r *run) admit() error {
	for _, ev := range r.pending {
		if int(ev.From) >= len(r.place) || int(ev.To) >= len(r.place) || ev.From < 0 || ev.To < 0 {
			return fmt.Errorf("netsim: event %v references unknown process", ev)
		}
		src, dst := r.place[ev.From], r.place[ev.To]
		seq := r.emitted
		r.emitted++
		if r.faults != nil && (r.faults.deadV[src] || r.faults.deadV[dst]) {
			// A dead guest neither sends nor receives; kills are
			// permanent, so retrying cannot help.
			r.res.Unreachable++
			if r.obs != nil {
				r.obs.OnDrop(DropInfo{Cycle: r.now, Seq: seq, Ev: ev, Reason: DropUnreachable})
			}
			continue
		}
		r.inflight++
		m := message{Ev: ev, Seq: seq, SrcHost: src, DstHost: dst, SentAt: r.now}
		e := -1
		if src != dst {
			var err error
			if e, err = r.hop.link(src, &m); err != nil {
				return err
			}
			if e < 0 {
				r.abandon(m)
				continue
			}
		}
		inj := &r.inj[r.owner[src]]
		*inj = append(*inj, placement{edge: e, at: src, m: m})
	}
	return nil
}

// release takes the parked messages whose backoff has elapsed out of the
// pool, in park order, and routes each one whose source is alive into
// r.rel.  Their events wait for retransmit: the shards queue the
// placements in the same barrier that reports the cycle's kill
// casualties, whose events come first.
func (r *run) release() error {
	r.resent = r.resent[:0]
	keep := r.retx[:0]
	for _, p := range r.retx {
		if p.readyAt > r.now {
			keep = append(keep, p)
			continue
		}
		if r.faults.deadV[p.m.SrcHost] {
			r.resent = append(r.resent, resend{m: p.m, deadSrc: true})
			continue
		}
		m := p.m
		e, err := r.hop.link(m.SrcHost, &m)
		if err != nil {
			return err
		}
		r.resent = append(r.resent, resend{m: m, lost: e < 0})
		if e >= 0 {
			rel := &r.rel[r.owner[m.SrcHost]]
			*rel = append(*rel, placement{edge: e, at: m.SrcHost, m: m})
		}
	}
	r.retx = keep
	return nil
}

// retransmit reports the cycle's releases in park order: one whose source
// died is abandoned, any other counts as a retransmission and is abandoned
// when no alive route is left.
func (r *run) retransmit() {
	for _, x := range r.resent {
		if !x.deadSrc {
			r.res.Retransmits++
			if r.obs != nil {
				r.obs.OnRetransmit(RetransmitInfo{Cycle: r.now, Seq: x.m.Seq, Ev: x.m.Ev, Attempt: x.m.Attempts})
			}
		}
		if x.deadSrc || x.lost {
			r.abandon(x.m)
		}
	}
}

// lose handles a message lost in flight under an active fault plan: the
// source is nacked and retransmits after an exponential backoff, unless
// the retry budget is spent.  The reason distinguishes true in-flight
// losses (random drops, kill casualties), which count as Drops, from
// corruption discards, which were already counted when the payload was
// mangled.
func (r *run) lose(m message, reason DropReason) {
	if reason != DropCorrupt {
		r.res.Drops++
	}
	if r.obs != nil {
		r.obs.OnDrop(DropInfo{Cycle: r.now, Seq: m.Seq, Ev: m.Ev, Reason: reason, Attempt: m.Attempts})
	}
	m.Corrupt = false
	m.Attempts++
	if m.Attempts > r.faults.plan.MaxRetries {
		r.abandon(m)
		return
	}
	shift := m.Attempts - 1
	if shift > 20 {
		shift = 20 // backoff saturates; the retry bound does the limiting
	}
	r.retx = append(r.retx, retx{m: m, readyAt: r.now + r.faults.plan.BackoffBase<<shift})
}

// abandon gives up on a message for good.  It stays counted in inflight
// until here, so quiescence still waits for every parked retransmission.
func (r *run) abandon(m message) {
	r.res.Unreachable++
	r.inflight--
	if r.obs != nil {
		r.obs.OnDrop(DropInfo{Cycle: r.now, Seq: m.Seq, Ev: m.Ev, Reason: DropUnreachable, Attempt: m.Attempts})
	}
}

// killed reports a kill that took effect this cycle.
func (r *run) killed(k firedKill) {
	if r.obs != nil {
		r.obs.OnKill(k.info(r.now))
	}
}

// deliver hands one Phase-2 arrival to the workload, unless its
// destination died while it was in flight; the workload's responses wait
// in r.pending for admit.
func (r *run) deliver(m *message) {
	if r.faults != nil && r.faults.deadV[m.DstHost] {
		r.abandon(*m)
		return
	}
	r.inflight--
	r.res.Delivered++
	lat := r.now - m.SentAt
	r.latencies.add(lat)
	if r.obs != nil {
		r.obs.OnDeliver(DeliverInfo{Cycle: r.now, Host: m.DstHost, Seq: m.Seq,
			Ev: m.Ev, Latency: lat, Local: m.SrcHost == m.DstHost})
	}
	r.wl.OnMessage(m.Ev, r.emit)
}

// finish stamps the executed cycles and the latency percentiles on the
// result when the run quiesces, is cancelled or hits the cycle cap.
func (r *run) finish(cycles int) {
	r.res.Cycles = cycles
	r.res.LatencyP50, r.res.LatencyP99, r.res.LatencyMax = r.latencies.percentiles()
}

// latencies counts a run's deliveries by latency.  A latency is at most
// the cycles run, so the counts take less room than one entry per
// delivery and need no sort.
type latencies struct {
	count []int // count[l] is the number of deliveries that took l cycles
	n     int
}

func (h *latencies) add(l int) {
	if l >= len(h.count) {
		h.count = append(h.count, make([]int, l+1-len(h.count))...)
	}
	h.count[l]++
	h.n++
}

// percentiles returns the entries the sorted latencies would hold at
// n/2, n·99/100 and n−1, read in one cumulative walk; zeros when nothing
// was delivered.
func (h *latencies) percentiles() (p50, p99, most int) {
	if h.n == 0 {
		return 0, 0, 0
	}
	idx := [3]int{h.n / 2, h.n * 99 / 100, h.n - 1}
	var at [3]int
	i, seen := 0, 0
	for l, c := range h.count {
		for seen += c; i < len(idx) && idx[i] < seen; i++ {
			at[i] = l
		}
	}
	return at[0], at[1], at[2]
}
