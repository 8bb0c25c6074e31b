package netsim

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"xtreesim/internal/bintree"
	"xtreesim/internal/core"
	"xtreesim/internal/graph"
)

// sendOne emits a single message from one guest to another at Init.
type sendOne struct {
	from, to int32
	arrived  bool
}

func (w *sendOne) Init(emit func(Event)) {
	emit(Event{From: w.from, To: w.to, Kind: KindTask})
}
func (w *sendOne) OnMessage(Event, func(Event)) { w.arrived = true }
func (w *sendOne) Done() bool                   { return w.arrived }

// embeddedXTreeConfig embeds tr into its optimal X-tree and returns the
// run config of the embedding (OnXTree).
func embeddedXTreeConfig(tb testing.TB, tr *bintree.Tree) Config {
	tb.Helper()
	emb, err := core.EmbedXTree(tr, core.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return OnXTree(emb.Host, emb.Assignment)
}

func TestOneHopPerCyclePathRegression(t *testing.T) {
	// The model invariant the whole slowdown measurement rests on: a
	// message crosses at most one link per cycle.  On the path
	// 0-1-2-3-4-5 with identity placement, a single message 0→5 must
	// take dist(0,5) = 5 cycles.  The pre-fix scheduler popped a
	// message forwarded onto a higher-indexed queue again in the same
	// cycle — edge indices ascend with the source vertex, so the whole
	// route collapsed into one cycle.
	const n = 6
	cfg := Config{Host: pathHost(n), Place: IdentityPlacement(n)}
	res, err := Run(cfg, &sendOne{from: 0, to: n - 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := n - 1; res.Cycles != want {
		t.Errorf("path traversal took %d cycles, want dist = %d", res.Cycles, want)
	}
	if want := n - 1; res.LatencyMax != want {
		t.Errorf("path traversal latency %d, want %d", res.LatencyMax, want)
	}
	if want := n - 1; res.HopsTotal != want {
		t.Errorf("path traversal used %d hops, want %d", res.HopsTotal, want)
	}
}

func TestLinkAuditDetectsLegacyMultiHopScheduler(t *testing.T) {
	// The pre-fix scheduler moved a message forwarded onto a
	// higher-indexed queue again in the same cycle, so on the path
	// 0-1-2-3-4-5 one message crossed all five links in cycle 1.  Replay
	// that hop sequence: every link moves once, so only the per-message
	// half of the audit can catch it, and it must, once.
	audit := NewLinkAudit()
	audit.OnCycleStart(CycleInfo{Cycle: 1, Links: 10, Inflight: 1, Emitted: 1, QueuedLinks: 1})
	for v := int32(0); v < 5; v++ {
		// Link v->v+1 of the path has dense edge index 2v.
		audit.OnHop(HopInfo{Cycle: 1, Edge: int(2 * v), From: v, To: v + 1, Seq: 0})
	}
	if err := audit.Err(); audit.Count() != 1 || err == nil || !strings.Contains(err.Error(), "hopped more than once") {
		t.Fatalf("audit found %d violation(s) (%v), want one per-message multi-hop finding", audit.Count(), err)
	}
}

func TestLinkAuditDetectsDoubleLinkUse(t *testing.T) {
	// Two messages crossing the same directed link in one cycle break
	// the one-message-per-link bandwidth model, though each message
	// hopped only once.
	audit := NewLinkAudit()
	audit.OnCycleStart(CycleInfo{Cycle: 1, Links: 4, Inflight: 2, Emitted: 2, QueuedLinks: 2})
	audit.OnHop(HopInfo{Cycle: 1, Edge: 0, From: 0, To: 1, Seq: 0})
	audit.OnHop(HopInfo{Cycle: 1, Edge: 0, From: 0, To: 1, Seq: 1})
	if err := audit.Err(); audit.Count() != 1 || err == nil || !strings.Contains(err.Error(), "moved two messages") {
		t.Fatalf("audit found %d violation(s) (%v), want one double-link finding", audit.Count(), err)
	}
}

func TestMaxQueueSeesInitialBurst(t *testing.T) {
	// Congested star: N sender guests share one leaf, the receiver sits
	// on another, so all N messages pile onto the same spoke when the
	// initial emission is routed.  The true peak backlog is N, observed
	// only at enqueue time — the old end-of-cycle sampling ran after
	// Phase 1 had already popped a head and reported N−1.
	const senders = 8
	star := graph.New(4) // center 0, leaves 1..3
	star.AddEdge(0, 1)
	star.AddEdge(0, 2)
	star.AddEdge(0, 3)
	place := make([]int32, senders+1)
	for i := 0; i < senders; i++ {
		place[i] = 1
	}
	place[senders] = 2
	wl := &burst{senders: senders}
	res, err := Run(Config{Host: star, Place: place}, wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxQueue != senders {
		t.Errorf("MaxQueue = %d, want the true enqueue-time peak %d", res.MaxQueue, senders)
	}
}

// burst has `senders` guests each sending one message to guest `senders`.
type burst struct {
	senders int
	got     int
}

func (w *burst) Init(emit func(Event)) {
	for i := 0; i < w.senders; i++ {
		emit(Event{From: int32(i), To: int32(w.senders), Kind: KindTask, Payload: int64(i)})
	}
}
func (w *burst) OnMessage(Event, func(Event)) { w.got++ }
func (w *burst) Done() bool                   { return w.got == w.senders }

func TestLinkAuditGreenAcrossWorkloads(t *testing.T) {
	// The audit must stay silent on every built-in workload, fault-free
	// and under seeded faults: the invariants hold in the real
	// simulator, not just in the toy cases above.
	tr := bintree.CompleteN(63)
	plans := map[string]*FaultPlan{
		"fault-free": nil,
		"faulty":     {Seed: 11, DropProb: 0.05, CorruptProb: 0.02, MaxRetries: 24},
	}
	workloads := map[string]func() Workload{
		"divide-conquer": func() Workload { return NewDivideConquer(tr, 2) },
		"broadcast":      func() Workload { return NewBroadcast(tr) },
		"exchange":       func() Workload { return NewExchange(tr, 2) },
		"scan":           func() Workload { return NewScan(tr) },
	}
	for pname, plan := range plans {
		for wname, mk := range workloads {
			audit := NewLinkAudit()
			cfg := embeddedXTreeConfig(t, tr)
			cfg.Faults = plan
			cfg.Observers = []Observer{audit}
			if _, err := Run(cfg, mk()); err != nil {
				t.Errorf("%s/%s: run failed: %v", wname, pname, err)
				continue
			}
			if err := audit.Err(); err != nil {
				t.Errorf("%s/%s: %v", wname, pname, err)
			}
		}
	}
}

func TestLinkAuditGreenUnderKillsAndReroutes(t *testing.T) {
	// Kills flush queues and park retransmissions: the conservation
	// counters must balance through all of it.
	audit := NewLinkAudit()
	cfg := Config{
		Host:      cycleHost(),
		Place:     []int32{0, 2},
		Faults:    &FaultPlan{Seed: 5, LinkKills: []LinkKill{{U: 0, V: 1, Cycle: 2}}, MaxRetries: 16},
		Observers: []Observer{audit},
	}
	res, err := Run(cfg, &testStream{n: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reroutes == 0 {
		t.Fatalf("kill produced no reroutes; result %+v", res)
	}
	if err := audit.Err(); err != nil {
		t.Error(err)
	}
}

func TestObserversDoNotPerturbResult(t *testing.T) {
	// Attaching every built-in observer must leave the Result
	// byte-identical: observation is read-only by construction, and
	// this pins it.
	tr := bintree.CompleteN(63)
	run := func(obs []Observer, plan *FaultPlan) Result {
		cfg := embeddedXTreeConfig(t, tr)
		cfg.Faults = plan
		cfg.Observers = obs
		res, err := Run(cfg, NewDivideConquer(tr, 2))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, plan := range []*FaultPlan{nil, {Seed: 3, DropProb: 0.1, MaxRetries: 24}} {
		plain := run(nil, plan)
		observed := run([]Observer{NewLinkAudit(), NewTraceRecorder(), NewTimeSeries()}, plan)
		if !reflect.DeepEqual(plain, observed) {
			t.Errorf("observers perturbed the result (plan %+v):\nplain:    %+v\nobserved: %+v",
				plan, plain, observed)
		}
	}
}

func TestTraceRecorderCountsAndJSONL(t *testing.T) {
	tr := bintree.Complete(4)
	rec := NewTraceRecorder()
	cfg := Config{Host: tr.AsGraph(), Place: IdentityPlacement(tr.N()), Observers: []Observer{rec}}
	res, err := Run(cfg, NewDivideConquer(tr, 2))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, e := range rec.Events() {
		counts[e.Type]++
	}
	if counts["hop"] != res.HopsTotal {
		t.Errorf("trace has %d hops, result says %d", counts["hop"], res.HopsTotal)
	}
	if counts["deliver"] != res.Delivered {
		t.Errorf("trace has %d deliveries, result says %d", counts["deliver"], res.Delivered)
	}
	if counts["cycle"] != res.Cycles {
		t.Errorf("trace has %d cycle records, makespan is %d", counts["cycle"], res.Cycles)
	}
	if rec.Truncated != 0 {
		t.Errorf("unexpected truncation: %d", rec.Truncated)
	}

	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d not valid JSON: %v", lines+1, err)
		}
		lines++
	}
	if lines != len(rec.Events()) {
		t.Errorf("JSONL has %d lines, recorder holds %d events", lines, len(rec.Events()))
	}
}

func TestTraceRecorderChromeTrace(t *testing.T) {
	tr := bintree.Complete(3)
	rec := NewTraceRecorder()
	cfg := Config{Host: tr.AsGraph(), Place: IdentityPlacement(tr.N()), Observers: []Observer{rec}}
	if _, err := Run(cfg, NewBroadcast(tr)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	if len(out.TraceEvents) == 0 {
		t.Fatal("chrome trace is empty")
	}
	for _, e := range out.TraceEvents {
		if _, ok := e["ph"]; !ok {
			t.Fatalf("trace event missing phase: %v", e)
		}
	}
}

func TestTraceRecorderTruncation(t *testing.T) {
	tr := bintree.Complete(4)
	rec := &TraceRecorder{maxEvents: 10}
	cfg := Config{Host: tr.AsGraph(), Place: IdentityPlacement(tr.N()), Observers: []Observer{rec}}
	if _, err := Run(cfg, NewDivideConquer(tr, 2)); err != nil {
		t.Fatal(err)
	}
	if len(rec.Events()) != 10 {
		t.Errorf("recorded %d events, cap was 10", len(rec.Events()))
	}
	if rec.Truncated == 0 {
		t.Error("truncation counter did not move")
	}
}

func TestTimeSeriesMatchesResult(t *testing.T) {
	tr := bintree.CompleteN(63)
	ts := NewTimeSeries()
	cfg := embeddedXTreeConfig(t, tr)
	cfg.Observers = []Observer{ts}
	res, err := Run(cfg, NewDivideConquer(tr, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Samples) != res.Cycles {
		t.Errorf("time series has %d samples, makespan is %d", len(ts.Samples), res.Cycles)
	}
	hops := 0
	for _, s := range ts.Samples {
		hops += s.Hops
		if u := s.Utilization(); u < 0 || u > 1 {
			t.Errorf("cycle %d: link utilization %v outside [0,1]", s.Cycle, u)
		}
	}
	if hops != res.HopsTotal {
		t.Errorf("time series counted %d hops, result says %d", hops, res.HopsTotal)
	}
	if ts.PeakInflight() == 0 {
		t.Error("peak inflight is zero on a run that delivered messages")
	}
	if ts.PeakUtilization() > 1 {
		t.Errorf("peak utilization %v > 1: some link moved two messages in a cycle",
			ts.PeakUtilization())
	}
}

func TestLatencyIncludesRetransmitBackoff(t *testing.T) {
	// A retransmitted message keeps its original sentAt, so its delivery
	// latency includes the backoff it waited out: dropped on its
	// cycle-1 hop, parked until cycle 1+BackoffBase, it can arrive no
	// earlier than that release cycle.  A reset sentAt would report
	// latency 1 here.
	const backoff = 4
	for seed := int64(1); seed <= 60; seed++ {
		cfg := Config{Host: pathHost(2), Place: []int32{0, 1},
			Faults: &FaultPlan{Seed: seed, DropProb: 0.9, MaxRetries: 30, BackoffBase: backoff}}
		res, err := Run(cfg, &testStream{n: 1})
		if err != nil || res.Retransmits == 0 {
			continue // unlucky seed: budget exhausted, or delivered first try
		}
		if res.LatencyMax < backoff+1 {
			t.Fatalf("seed %d: LatencyMax %d < backoff %d + 1 — sentAt not preserved across retransmission (result %+v)",
				seed, res.LatencyMax, backoff, res)
		}
		return
	}
	t.Fatal("no seed produced a retransmitted delivery")
}

func TestCombineObserversDropsNils(t *testing.T) {
	if combineObservers(nil) != nil {
		t.Error("empty observer list should combine to nil")
	}
	if combineObservers([]Observer{nil, nil}) != nil {
		t.Error("all-nil observer list should combine to nil")
	}
	a := NewLinkAudit()
	if combineObservers([]Observer{nil, a}) != Observer(a) {
		t.Error("single live observer should be returned unwrapped")
	}
	m := combineObservers([]Observer{NewLinkAudit(), NewTimeSeries()})
	if _, ok := m.(multiObserver); !ok {
		t.Errorf("two observers should combine to multiObserver, got %T", m)
	}
}

func BenchmarkRunNilObserver(b *testing.B) {
	tr := bintree.CompleteN(255)
	cfg := Config{Host: tr.AsGraph(), Place: IdentityPlacement(tr.N())}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, NewDivideConquer(tr, 2)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunWithLinkAudit(b *testing.B) {
	tr := bintree.CompleteN(255)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := Config{Host: tr.AsGraph(), Place: IdentityPlacement(tr.N()),
			Observers: []Observer{NewLinkAudit()}}
		if _, err := Run(cfg, NewDivideConquer(tr, 2)); err != nil {
			b.Fatal(err)
		}
	}
}
