package netsim

import (
	"encoding/json"
	"fmt"
	"io"

	"xtreesim/internal/trace"
)

// Observer receives callbacks as the simulation runs.  Observers are
// strictly read-only: the simulator's behavior and Result are
// byte-identical with or without them (enforced by test), and a run with
// no observers pays a single nil check per hook site.
//
// All callbacks happen synchronously on the simulating goroutine, in the
// deterministic order the simulator itself processes events.
type Observer interface {
	// OnCycleStart fires at the start of every executed cycle, before
	// any link movement, with a consistent snapshot of the global
	// counters.  At this instant the conservation laws hold:
	//
	//	Emitted  == Delivered + Unreachable + Inflight
	//	Inflight == QueuedLinks + QueuedLocal + Parked
	OnCycleStart(CycleInfo)
	// OnHop fires when a message crosses one directed link.
	OnHop(HopInfo)
	// OnDeliver fires when a message reaches its destination process.
	OnDeliver(DeliverInfo)
	// OnDrop fires when a message instance is lost: random loss,
	// checksum failure, kill casualty, or final abandonment.
	OnDrop(DropInfo)
	// OnRetransmit fires when the delivery layer re-sends a message.
	OnRetransmit(RetransmitInfo)
	// OnKill fires when a scheduled link or vertex kill takes effect.
	OnKill(KillInfo)
}

// CycleInfo is the per-cycle counter snapshot passed to OnCycleStart.
type CycleInfo struct {
	Cycle       int   // cycle about to execute (1-based)
	Links       int   // directed links in the host
	Inflight    int   // messages somewhere between emission and delivery
	Emitted     int64 // guest events accepted since the start of the run
	Delivered   int
	Unreachable int
	QueuedLinks int // messages on link queues
	QueuedLocal int // messages in same-vertex memory queues
	Parked      int // messages waiting out a retransmission backoff
}

// HopInfo describes one message crossing one directed link.
type HopInfo struct {
	Cycle   int
	Edge    int   // dense directed-edge index (deterministic enumeration)
	From    int32 // host vertices
	To      int32
	Seq     int64 // message identity, stable across hops and retries
	Ev      Event
	Backlog int // messages still queued on this link after the hop
}

// DeliverInfo describes one message reaching its destination process.
type DeliverInfo struct {
	Cycle   int
	Host    int32 // host vertex of the destination process
	Seq     int64
	Ev      Event
	Latency int  // cycles from emission (including retransmission backoff)
	Local   bool // same-vertex delivery through memory, no links used
}

// DropReason says why a message instance was lost.
type DropReason int

const (
	// DropRandom is a per-hop random in-flight loss (FaultPlan.DropProb).
	DropRandom DropReason = iota
	// DropCorrupt is a delivery-time checksum failure of a payload
	// corrupted in flight; the receiver discards and nacks.
	DropCorrupt
	// DropKilled is a casualty of a link or vertex kill: the message
	// sat on a queue that just ceased to exist.
	DropKilled
	// DropUnreachable is the final abandonment of a message: retries
	// exhausted, no alive route left, or a dead endpoint.
	DropUnreachable
)

func (r DropReason) String() string {
	switch r {
	case DropRandom:
		return "random"
	case DropCorrupt:
		return "corrupt"
	case DropKilled:
		return "killed"
	case DropUnreachable:
		return "unreachable"
	}
	return fmt.Sprintf("DropReason(%d)", int(r))
}

// DropInfo describes one lost message instance.  Every drop with a
// reason other than DropUnreachable is followed by either a retransmission
// or a final DropUnreachable for the same Seq.
type DropInfo struct {
	Cycle   int
	Seq     int64
	Ev      Event
	Reason  DropReason
	Attempt int // retransmissions before this instance
}

// RetransmitInfo describes the delivery layer re-sending a message.
type RetransmitInfo struct {
	Cycle   int
	Seq     int64
	Ev      Event
	Attempt int // 1 for the first retransmission
}

// KillInfo describes a scheduled fault taking effect.
type KillInfo struct {
	Cycle  int
	Vertex bool  // true: vertex U died; false: link U–V died
	U, V   int32 // V == U for vertex kills
}

// combineObservers folds a list into a single Observer, dropping nils.
// Returns nil when nothing is attached so hook sites stay one nil check.
func combineObservers(obs []Observer) Observer {
	var live []Observer
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multiObserver(live)
}

type multiObserver []Observer

func (m multiObserver) OnCycleStart(c CycleInfo) {
	for _, o := range m {
		o.OnCycleStart(c)
	}
}
func (m multiObserver) OnHop(h HopInfo) {
	for _, o := range m {
		o.OnHop(h)
	}
}
func (m multiObserver) OnDeliver(d DeliverInfo) {
	for _, o := range m {
		o.OnDeliver(d)
	}
}
func (m multiObserver) OnDrop(d DropInfo) {
	for _, o := range m {
		o.OnDrop(d)
	}
}
func (m multiObserver) OnRetransmit(r RetransmitInfo) {
	for _, o := range m {
		o.OnRetransmit(r)
	}
}
func (m multiObserver) OnKill(k KillInfo) {
	for _, o := range m {
		o.OnKill(k)
	}
}

// NopObserver implements Observer with empty methods; embed it to build
// observers that care about a subset of the hooks.
type NopObserver struct{}

func (NopObserver) OnCycleStart(CycleInfo)      {}
func (NopObserver) OnHop(HopInfo)               {}
func (NopObserver) OnDeliver(DeliverInfo)       {}
func (NopObserver) OnDrop(DropInfo)             {}
func (NopObserver) OnRetransmit(RetransmitInfo) {}
func (NopObserver) OnKill(KillInfo)             {}

// LinkAudit re-verifies the simulator's model invariants every cycle and
// records violations instead of trusting the implementation:
//
//  1. one hop per directed link per cycle — the store-and-forward
//     bandwidth model;
//  2. one hop per message per cycle — the discipline that makes dilation
//     bound slowdown (a multi-hop scheduler bug shows up here even when
//     every individual link moved only once);
//  3. counter conservation at every cycle start:
//     emitted = delivered + unreachable + inflight, and
//     inflight = link queues + memory queues + parked retransmissions.
//
// A clean run keeps Err() nil.  The audit is pure observation: attaching
// it never changes the Result.
type LinkAudit struct {
	NopObserver
	// MaxViolations caps how many violations are recorded (the count is
	// exact regardless).  0 means 16.
	MaxViolations int

	cycle      int
	count      int
	violations []string
	linkCycle  []int         // last cycle each directed link moved a message
	msgHops    map[int64]int // hops per message seq in the current cycle
}

// NewLinkAudit returns a ready-to-attach audit observer.
func NewLinkAudit() *LinkAudit {
	return &LinkAudit{msgHops: make(map[int64]int)}
}

func (a *LinkAudit) violate(format string, args ...any) {
	a.count++
	maxV := a.MaxViolations
	if maxV <= 0 {
		maxV = 16
	}
	if len(a.violations) < maxV {
		a.violations = append(a.violations, fmt.Sprintf(format, args...))
	}
}

func (a *LinkAudit) OnCycleStart(c CycleInfo) {
	a.cycle = c.Cycle
	if a.msgHops == nil {
		a.msgHops = make(map[int64]int)
	}
	clear(a.msgHops)
	if got := int64(c.Delivered) + int64(c.Unreachable) + int64(c.Inflight); got != c.Emitted {
		a.violate("cycle %d: emitted %d != delivered %d + unreachable %d + inflight %d",
			c.Cycle, c.Emitted, c.Delivered, c.Unreachable, c.Inflight)
	}
	if got := c.QueuedLinks + c.QueuedLocal + c.Parked; got != c.Inflight {
		a.violate("cycle %d: inflight %d != links %d + local %d + parked %d",
			c.Cycle, c.Inflight, c.QueuedLinks, c.QueuedLocal, c.Parked)
	}
}

func (a *LinkAudit) OnHop(h HopInfo) {
	for len(a.linkCycle) <= h.Edge {
		a.linkCycle = append(a.linkCycle, -1)
	}
	if a.linkCycle[h.Edge] == h.Cycle {
		a.violate("cycle %d: link %d (%d->%d) moved two messages", h.Cycle, h.Edge, h.From, h.To)
	}
	a.linkCycle[h.Edge] = h.Cycle
	if a.msgHops == nil {
		a.msgHops = make(map[int64]int)
	}
	a.msgHops[h.Seq]++
	if a.msgHops[h.Seq] == 2 { // report once per message per cycle
		a.violate("cycle %d: message seq %d hopped more than once", h.Cycle, h.Seq)
	}
}

// Count reports the total number of violations observed.
func (a *LinkAudit) Count() int { return a.count }

// Violations returns the recorded violation descriptions (capped at
// MaxViolations).
func (a *LinkAudit) Violations() []string { return a.violations }

// Err returns nil on a clean run, or an error summarizing the violations.
func (a *LinkAudit) Err() error {
	if a.count == 0 {
		return nil
	}
	return fmt.Errorf("netsim: audit found %d invariant violation(s), first: %s", a.count, a.violations[0])
}

// TraceSchemaVersion is the schema stamped on every exported trace
// event.  The TraceRecorder JSONL export and the live session stream
// (internal/telemetry) share this version and the event-type enum below:
// a consumer that can decode one can decode the other.  Decoders must
// reject versions they do not know (DecodeTraceEvent does) instead of
// silently misreading fields.
const TraceSchemaVersion = 1

// The event-type enum shared by the TraceRecorder JSONL export and the
// streaming session schema.  The simulator emits exactly these six;
// internal/telemetry extends the enum with stream-lifecycle types
// (start, shard, heartbeat, dropped, result) for the live wire format.
const (
	EventCycle      = "cycle"      // per-cycle counter snapshot
	EventHop        = "hop"        // one message crossing one directed link
	EventDeliver    = "deliver"    // message reached its destination process
	EventDrop       = "drop"       // message instance lost (see DropReason)
	EventRetransmit = "retransmit" // delivery layer re-sent a message
	EventKill       = "kill"       // scheduled link/vertex fault took effect
)

// TraceEvent is one recorded simulator event.  Type is one of the event
// constants above (EventCycle..EventKill); unused fields are omitted
// from the JSONL encoding.
type TraceEvent struct {
	SchemaVersion int    `json:"schema_version"`
	Type          string `json:"type"`
	Cycle         int    `json:"cycle"`
	Edge          int    `json:"edge,omitempty"`
	From          int32  `json:"from,omitempty"`
	To            int32  `json:"to,omitempty"`
	Host          int32  `json:"host,omitempty"`
	Seq           int64  `json:"seq,omitempty"`
	EvFrom        int32  `json:"evFrom,omitempty"`
	EvTo          int32  `json:"evTo,omitempty"`
	Kind          int32  `json:"kind,omitempty"`
	Latency       int    `json:"latency,omitempty"`
	Local         bool   `json:"local,omitempty"`
	Reason        string `json:"reason,omitempty"`
	Attempt       int    `json:"attempt,omitempty"`
	Backlog       int    `json:"backlog,omitempty"`
	// Counter snapshot, only on "cycle" events.
	Inflight    int `json:"inflight,omitempty"`
	QueuedLinks int `json:"queuedLinks,omitempty"`
	QueuedLocal int `json:"queuedLocal,omitempty"`
	Parked      int `json:"parked,omitempty"`
}

// Trace returns the snapshot as a "cycle" TraceEvent.  The Trace methods
// of the six callback arguments are the one place a simulator event
// becomes a TraceEvent: TraceRecorder stores their results and the
// telemetry stream embeds them, so the JSONL export and the live stream
// share one conversion.
func (c CycleInfo) Trace() TraceEvent {
	return TraceEvent{SchemaVersion: TraceSchemaVersion, Type: EventCycle, Cycle: c.Cycle,
		Inflight: c.Inflight, QueuedLinks: c.QueuedLinks, QueuedLocal: c.QueuedLocal, Parked: c.Parked}
}

// Trace returns the hop as a "hop" TraceEvent.
func (h HopInfo) Trace() TraceEvent {
	return TraceEvent{SchemaVersion: TraceSchemaVersion, Type: EventHop, Cycle: h.Cycle,
		Edge: h.Edge, From: h.From, To: h.To, Seq: h.Seq,
		EvFrom: h.Ev.From, EvTo: h.Ev.To, Kind: h.Ev.Kind, Backlog: h.Backlog}
}

// Trace returns the delivery as a "deliver" TraceEvent.
func (d DeliverInfo) Trace() TraceEvent {
	return TraceEvent{SchemaVersion: TraceSchemaVersion, Type: EventDeliver, Cycle: d.Cycle,
		Host: d.Host, Seq: d.Seq, EvFrom: d.Ev.From, EvTo: d.Ev.To, Kind: d.Ev.Kind,
		Latency: d.Latency, Local: d.Local}
}

// Trace returns the loss as a "drop" TraceEvent, its reason spelled out.
func (d DropInfo) Trace() TraceEvent {
	return TraceEvent{SchemaVersion: TraceSchemaVersion, Type: EventDrop, Cycle: d.Cycle,
		Seq: d.Seq, EvFrom: d.Ev.From, EvTo: d.Ev.To, Kind: d.Ev.Kind,
		Reason: d.Reason.String(), Attempt: d.Attempt}
}

// Trace returns the re-send as a "retransmit" TraceEvent.
func (r RetransmitInfo) Trace() TraceEvent {
	return TraceEvent{SchemaVersion: TraceSchemaVersion, Type: EventRetransmit, Cycle: r.Cycle,
		Seq: r.Seq, EvFrom: r.Ev.From, EvTo: r.Ev.To, Kind: r.Ev.Kind, Attempt: r.Attempt}
}

// Trace returns the fault as a "kill" TraceEvent: Reason is "vertex" or
// "link", and From/To carry U and V.
func (k KillInfo) Trace() TraceEvent {
	reason := "link"
	if k.Vertex {
		reason = "vertex"
	}
	return TraceEvent{SchemaVersion: TraceSchemaVersion, Type: EventKill, Cycle: k.Cycle,
		From: k.U, To: k.V, Reason: reason}
}

// TraceRecorder records every simulator event in memory for offline
// export as JSONL (one event per line) or as a Chrome-trace file
// (chrome://tracing / Perfetto "traceEvents" JSON, one track per link).
type TraceRecorder struct {
	// MaxEvents bounds memory on long runs; once reached, further
	// events are counted in Truncated but not stored.  0 means 1<<20.
	MaxEvents int

	events    []TraceEvent
	Truncated int // events observed but not recorded
}

// NewTraceRecorder returns a ready-to-attach trace recorder.
func NewTraceRecorder() *TraceRecorder { return &TraceRecorder{} }

func (t *TraceRecorder) add(e TraceEvent) {
	maxE := t.MaxEvents
	if maxE <= 0 {
		maxE = 1 << 20
	}
	if len(t.events) >= maxE {
		t.Truncated++
		return
	}
	t.events = append(t.events, e)
}

func (t *TraceRecorder) OnCycleStart(c CycleInfo)      { t.add(c.Trace()) }
func (t *TraceRecorder) OnHop(h HopInfo)               { t.add(h.Trace()) }
func (t *TraceRecorder) OnDeliver(d DeliverInfo)       { t.add(d.Trace()) }
func (t *TraceRecorder) OnDrop(d DropInfo)             { t.add(d.Trace()) }
func (t *TraceRecorder) OnRetransmit(r RetransmitInfo) { t.add(r.Trace()) }
func (t *TraceRecorder) OnKill(k KillInfo)             { t.add(k.Trace()) }

// Events returns the recorded events in simulation order.
func (t *TraceRecorder) Events() []TraceEvent { return t.events }

// DecodeTraceEvent parses one JSONL line of a TraceRecorder export.  It
// rejects lines stamped with a schema version this build does not know:
// a field could have been renamed or re-interpreted between versions,
// and a silently misread trace is worse than a refused one.
func DecodeTraceEvent(line []byte) (TraceEvent, error) {
	var e TraceEvent
	if err := json.Unmarshal(line, &e); err != nil {
		return TraceEvent{}, fmt.Errorf("netsim: decode trace event: %w", err)
	}
	if e.SchemaVersion != TraceSchemaVersion {
		return TraceEvent{}, fmt.Errorf("netsim: unsupported trace schema_version %d (this build reads %d)",
			e.SchemaVersion, TraceSchemaVersion)
	}
	return e, nil
}

// WriteJSONL writes one JSON object per line per event.
func (t *TraceRecorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range t.events {
		if err := enc.Encode(&t.events[i]); err != nil {
			return err
		}
	}
	return nil
}

// WriteChromeTrace writes the recorded events as a Chrome trace
// (trace.WriteChrome), loadable in chrome://tracing or
// https://ui.perfetto.dev.  One simulated cycle maps to one microsecond
// of trace time; each directed link is a track (tid), hops are 1-cycle
// duration slices on their link's track, deliveries are instants on
// per-host tracks (pid 1), faults are instants on pid 2, and the cycle
// counters become a counter track.
func (t *TraceRecorder) WriteChromeTrace(w io.Writer) error {
	var events []trace.ChromeEvent
	for _, e := range t.events {
		ts := int64(e.Cycle)
		switch e.Type {
		case "cycle":
			events = append(events, trace.ChromeEvent{
				Name: "queues", Ph: "C", Ts: ts, Pid: 0, Tid: 0,
				Args: map[string]any{"inflight": e.Inflight, "links": e.QueuedLinks,
					"local": e.QueuedLocal, "parked": e.Parked},
			})
		case "hop":
			events = append(events, trace.ChromeEvent{
				Name: fmt.Sprintf("seq %d: %d->%d", e.Seq, e.From, e.To),
				Ph:   "X", Ts: ts, Dur: 1, Pid: 0, Tid: e.Edge,
				Args: map[string]any{"seq": e.Seq, "backlog": e.Backlog},
			})
		case "deliver":
			events = append(events, trace.ChromeEvent{
				Name: fmt.Sprintf("deliver seq %d", e.Seq),
				Ph:   "i", Ts: ts, Pid: 1, Tid: int(e.Host), S: "t",
				Args: map[string]any{"latency": e.Latency, "local": e.Local},
			})
		case "drop", "retransmit", "kill":
			events = append(events, trace.ChromeEvent{
				Name: e.Type, Ph: "i", Ts: ts, Pid: 2, Tid: 0, S: "g",
				Args: map[string]any{"seq": e.Seq, "reason": e.Reason, "attempt": e.Attempt},
			})
		}
	}
	return trace.WriteChrome(w, events)
}

// CycleSample is one per-cycle measurement recorded by TimeSeries.
type CycleSample struct {
	Cycle       int
	Inflight    int
	QueuedLinks int
	QueuedLocal int
	Parked      int
	Hops        int // link traversals during this cycle
	Links       int // directed links in the host
}

// Utilization is the fraction of directed links that moved a message
// during this cycle.
func (s CycleSample) Utilization() float64 {
	if s.Links == 0 {
		return 0
	}
	return float64(s.Hops) / float64(s.Links)
}

// TimeSeries records one CycleSample per executed cycle: the shape of the
// run over time (backlog build-up, drain, utilization) rather than the
// single end-of-run aggregates in Result.
type TimeSeries struct {
	NopObserver
	Samples []CycleSample
}

// NewTimeSeries returns a ready-to-attach time-series collector.
func NewTimeSeries() *TimeSeries { return &TimeSeries{} }

func (t *TimeSeries) OnCycleStart(c CycleInfo) {
	t.Samples = append(t.Samples, CycleSample{
		Cycle: c.Cycle, Inflight: c.Inflight, QueuedLinks: c.QueuedLinks,
		QueuedLocal: c.QueuedLocal, Parked: c.Parked, Links: c.Links,
	})
}

func (t *TimeSeries) OnHop(HopInfo) {
	if n := len(t.Samples); n > 0 {
		t.Samples[n-1].Hops++
	}
}

// PeakInflight returns the largest inflight snapshot over the run.
func (t *TimeSeries) PeakInflight() int {
	peak := 0
	for _, s := range t.Samples {
		if s.Inflight > peak {
			peak = s.Inflight
		}
	}
	return peak
}

// PeakUtilization returns the largest per-cycle link utilization.
func (t *TimeSeries) PeakUtilization() float64 {
	peak := 0.0
	for _, s := range t.Samples {
		if u := s.Utilization(); u > peak {
			peak = u
		}
	}
	return peak
}
