package telemetry

// recorder.go bridges the simulator's Observer callbacks onto a hub.
// The Recorder runs synchronously on the simulating goroutine (both the
// single-process netsim loop and the sharded run's coordinator call
// observers there), so everything it does must be cheap and non-blocking
// — one line encoded into the ring per event, no I/O, no waiting on
// subscribers.  That is the whole backpressure contract: the simulation's
// Result is byte-identical with or without a Recorder attached, no matter
// how slow or stuck the consumers are.

import "xtreesim/internal/netsim"

// Recorder publishes simulator events into a Hub as stream Events.  The
// trace fields of each event come from its callback argument's Trace
// method, the conversion netsim.TraceRecorder uses too; the Recorder
// adds only the stream's own fields.
//
// Per-cycle samples are always published; individual hop events are
// opt-in (StreamHops) because a congested run emits one per link per
// cycle — without them, each EventCycle still carries the hop count of
// the cycle before it, so utilization is visible at 1/links the volume.
type Recorder struct {
	hub     *Hub
	session string

	// StreamHops publishes one event per link traversal (high volume).
	StreamHops bool

	cycleHops int
}

// NewRecorder returns a ready-to-attach observer publishing into hub,
// stamping every event with the session ID.
func NewRecorder(hub *Hub, session string) *Recorder {
	return &Recorder{hub: hub, session: session}
}

// Publish forwards a hand-built event (start/result/shard lifecycle
// records) through the recorder's hub with its session stamp.  Like
// Hub.Publish, it refuses an event whose Payload does not encode.  The
// simulator's events carry no Payload, so the callbacks below cannot fail.
func (r *Recorder) Publish(e Event) (uint64, error) {
	e.Session = r.session
	return r.hub.Publish(e)
}

func (r *Recorder) OnCycleStart(c netsim.CycleInfo) {
	r.Publish(Event{
		TraceEvent:  c.Trace(),
		Delivered:   c.Delivered,
		Unreachable: c.Unreachable,
		Emitted:     c.Emitted,
		Hops:        r.cycleHops, // traversals of the cycle that just ended
	})
	r.cycleHops = 0
}

func (r *Recorder) OnHop(h netsim.HopInfo) {
	r.cycleHops++
	if r.StreamHops {
		r.Publish(Event{TraceEvent: h.Trace()})
	}
}

func (r *Recorder) OnDeliver(d netsim.DeliverInfo)       { r.Publish(Event{TraceEvent: d.Trace()}) }
func (r *Recorder) OnDrop(d netsim.DropInfo)             { r.Publish(Event{TraceEvent: d.Trace()}) }
func (r *Recorder) OnRetransmit(t netsim.RetransmitInfo) { r.Publish(Event{TraceEvent: t.Trace()}) }
func (r *Recorder) OnKill(k netsim.KillInfo)             { r.Publish(Event{TraceEvent: k.Trace()}) }
