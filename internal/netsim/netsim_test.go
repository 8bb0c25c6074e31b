package netsim

import (
	"math/rand"
	"testing"

	"xtreesim/internal/bintree"
	"xtreesim/internal/core"
	"xtreesim/internal/graph"
)

// runOnTree runs a workload on the guest's own topology.
func runOnTree(t *testing.T, tr *bintree.Tree, wl Workload) Result {
	t.Helper()
	res, err := Run(Config{Host: tr.AsGraph(), Place: IdentityPlacement(tr.N())}, wl)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDivideConquerOnIdealMachine(t *testing.T) {
	// On the complete tree of height h the wave goes down h levels and
	// back: makespan 2h (one cycle per edge per direction).
	for h := 1; h <= 6; h++ {
		tr := bintree.Complete(h)
		res := runOnTree(t, tr, NewDivideConquer(tr, 1))
		if res.Cycles != 2*h {
			t.Errorf("h=%d: makespan %d, want %d", h, res.Cycles, 2*h)
		}
		// Every edge carries one task and one result.
		if want := 2 * (tr.N() - 1); res.Delivered != want {
			t.Errorf("h=%d: delivered %d, want %d", h, res.Delivered, want)
		}
	}
}

func TestBroadcastOnIdealMachine(t *testing.T) {
	tr := bintree.Complete(5)
	res := runOnTree(t, tr, NewBroadcast(tr))
	if res.Cycles != 5 {
		t.Errorf("broadcast makespan %d, want 5", res.Cycles)
	}
	if res.Delivered != tr.N()-1 {
		t.Errorf("delivered %d", res.Delivered)
	}
}

func TestSingleNode(t *testing.T) {
	tr := bintree.Path(1)
	res := runOnTree(t, tr, NewDivideConquer(tr, 3))
	if res.Cycles != 0 || res.Delivered != 0 {
		t.Errorf("single node run: %+v", res)
	}
}

func TestPipelinedWaves(t *testing.T) {
	tr := bintree.Complete(4)
	one := runOnTree(t, tr, NewDivideConquer(tr, 1))
	three := runOnTree(t, tr, NewDivideConquer(tr, 3))
	if three.Cycles != 3*one.Cycles {
		t.Errorf("3 waves on ideal machine: %d, want %d", three.Cycles, 3*one.Cycles)
	}
}

// TestSlowdownBoundedByDilation is the headline simulation experiment:
// running the divide-and-conquer program on the X-tree machine through the
// Monien embedding costs at most ~dilation× the ideal makespan.
func TestSlowdownBoundedByDilation(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, f := range []bintree.Family{bintree.FamilyComplete, bintree.FamilyRandom, bintree.FamilyCaterpillar} {
		tr, err := bintree.Generate(f, int(core.Capacity(5)), rng)
		if err != nil {
			t.Fatal(err)
		}
		ideal := runOnTree(t, tr, NewDivideConquer(tr, 1))

		emb, err := core.EmbedXTree(tr, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		hostRes, err := Run(OnXTree(emb.Host, emb.Assignment), NewDivideConquer(tr, 1))
		if err != nil {
			t.Fatal(err)
		}
		slow := float64(hostRes.Cycles) / float64(ideal.Cycles)
		dil := emb.Dilation()
		t.Logf("%s: ideal=%d host=%d slowdown=%.2f dilation=%d", f, ideal.Cycles, hostRes.Cycles, slow, dil)
		// Latency stretches by ≤ dilation; congestion (16 guests per
		// processor, queued links) can add a constant factor on top.
		// The paper's promise is "constant slowdown" — assert a
		// generous constant.
		if slow > float64(dil)*8 {
			t.Errorf("%s: slowdown %.2f too large for dilation %d", f, slow, dil)
		}
	}
}

func TestRunErrors(t *testing.T) {
	tr := bintree.Path(3)
	if _, err := Run(Config{Host: nil, Place: nil}, NewBroadcast(tr)); err == nil {
		t.Error("nil host accepted")
	}
	if _, err := Run(Config{Host: tr.AsGraph(), Place: []int32{0, 1, 9}}, NewBroadcast(tr)); err == nil {
		t.Error("invalid placement accepted")
	}
	// Unroutable: a host with no edges cannot carry the broadcast.
	disc := graph.New(3)
	if _, err := Run(Config{Host: disc, Place: []int32{0, 1, 2}}, NewBroadcast(tr)); err == nil {
		t.Error("disconnected host accepted")
	}
}

// stuckWorkload emits one message and then claims it is never done.
type stuckWorkload struct{}

func (stuckWorkload) Init(emit func(Event)) { emit(Event{From: 0, To: 1, Kind: KindTask}) }
func (stuckWorkload) OnMessage(Event, func(Event)) {
}
func (stuckWorkload) Done() bool { return false }

func TestDeadlockDetected(t *testing.T) {
	tr := bintree.Path(2)
	if _, err := Run(Config{Host: tr.AsGraph(), Place: IdentityPlacement(2)}, stuckWorkload{}); err == nil {
		t.Error("quiescent-but-not-done run accepted")
	}
}

func TestLinkStatsPopulated(t *testing.T) {
	tr := bintree.Complete(4)
	res := runOnTree(t, tr, NewDivideConquer(tr, 2))
	if res.HopsTotal == 0 || res.MaxLinkLoad == 0 {
		t.Errorf("stats empty: %+v", res)
	}
	if res.MaxLinkLoad < 2 {
		t.Errorf("root link should carry ≥ 2 messages, got %d", res.MaxLinkLoad)
	}
}

// pingPong bounces one message between two processes forever.
type pingPong struct{}

func (pingPong) Init(emit func(Event)) { emit(Event{From: 0, To: 1, Kind: KindTask}) }
func (pingPong) OnMessage(ev Event, emit func(Event)) {
	emit(Event{From: ev.To, To: ev.From, Kind: KindTask})
}
func (pingPong) Done() bool { return false }

func TestCycleCapEnforced(t *testing.T) {
	tr := bintree.Path(2)
	res, err := Run(Config{Host: tr.AsGraph(), Place: IdentityPlacement(2), MaxCycles: 50}, pingPong{})
	if err == nil {
		t.Fatal("endless workload terminated without error")
	}
	// Regression: the cap path used to leave Result.Cycles at 0, as if
	// the 50 burned cycles never happened.
	if res.Cycles != 50 {
		t.Errorf("capped run reports Cycles=%d, want 50", res.Cycles)
	}
	if res.Delivered == 0 || res.LatencyMax == 0 {
		t.Errorf("capped run lost its accumulated statistics: %+v", res)
	}
}

// dupKeyWorkload floods co-located guest 1 with messages that share the
// full (To, From, Kind) sort key and differ only in Payload, recording the
// delivery order.
type dupKeyWorkload struct {
	n   int
	got []int64
}

func (w *dupKeyWorkload) Init(emit func(Event)) {
	// Emit in descending payload order so that "arrival order" and
	// "payload order" disagree loudly.
	for i := w.n - 1; i >= 0; i-- {
		emit(Event{From: 0, To: 1, Kind: KindTask, Payload: int64(i)})
	}
}
func (w *dupKeyWorkload) OnMessage(ev Event, emit func(Event)) { w.got = append(w.got, ev.Payload) }
func (w *dupKeyWorkload) Done() bool                           { return len(w.got) == w.n }

func TestDuplicateKeyDeliveryOrderIsDeterministic(t *testing.T) {
	// Both guests share host vertex 0, so all messages travel through
	// the memory queue and arrive in the same cycle.  The delivery sort
	// key used to stop at (To, From, Kind), leaving the order of these
	// payload-only-distinct messages to sort.Slice's whims; the full
	// tie-break must deliver them in ascending payload order.
	const n = 32
	host := graph.New(1)
	wl := &dupKeyWorkload{n: n}
	if _, err := Run(Config{Host: host, Place: []int32{0, 0}}, wl); err != nil {
		t.Fatal(err)
	}
	for i, p := range wl.got {
		if p != int64(i) {
			t.Fatalf("delivery order not sorted by payload at %d: %v", i, wl.got)
		}
	}
}
