package telemetry

import (
	"testing"

	"xtreesim/internal/netsim"
)

// TestRecorderZeroAllocs is the per-event alloc guard for the observer
// that streams simulator events: counting a hop, publishing a streamed
// hop, and publishing a delivery plus a cycle sample each convert the
// event and append it to the ring without allocating.
func TestRecorderZeroAllocs(t *testing.T) {
	rec := NewRecorder(NewHub(64), "s")
	h := netsim.HopInfo{Cycle: 1, Edge: 2, From: 3, To: 4, Seq: 5, Backlog: 1}
	d := netsim.DeliverInfo{Cycle: 1, Host: 4, Seq: 5, Latency: 3}
	c := netsim.CycleInfo{Cycle: 2, Links: 8, Inflight: 1, Emitted: 2, Delivered: 1, QueuedLinks: 1}
	for _, stream := range []bool{false, true} {
		rec.StreamHops = stream
		if a := testing.AllocsPerRun(200, func() { rec.OnHop(h) }); a != 0 {
			t.Errorf("OnHop with StreamHops=%v allocated %.1f times per event, want 0", stream, a)
		}
	}
	if a := testing.AllocsPerRun(200, func() { rec.OnDeliver(d); rec.OnCycleStart(c) }); a != 0 {
		t.Errorf("OnDeliver + OnCycleStart allocated %.1f times per pair, want 0", a)
	}
}

// BenchmarkRecorderEvent prices the observer cost of one streamed hop:
// the TraceEvent conversion plus one ring append.  Run with -benchmem;
// expect 0 allocs/op.
func BenchmarkRecorderEvent(b *testing.B) {
	rec := NewRecorder(NewHub(0), "s")
	rec.StreamHops = true
	h := netsim.HopInfo{Cycle: 1, Edge: 2, From: 3, To: 4, Seq: 5, Backlog: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.OnHop(h)
	}
}
