package xtreesim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"xtreesim"

	"xtreesim/internal/netsim"
)

func TestEmbedStrictAndInto(t *testing.T) {
	tree, err := xtreesim.GenerateTree(xtreesim.FamilyZigzag, 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := xtreesim.Embed(tree, xtreesim.WithStrict())
	if err != nil {
		t.Fatal(err)
	}
	if err := xtreesim.Verify(res); err != nil {
		t.Fatal(err)
	}
	big, err := xtreesim.Embed(tree, xtreesim.WithHeight(7))
	if err != nil {
		t.Fatal(err)
	}
	if big.Host.Height() != 7 {
		t.Errorf("forced height = %d", big.Host.Height())
	}
	if _, err := xtreesim.Embed(tree, xtreesim.WithHeight(0)); err == nil {
		t.Error("overfull forced host accepted")
	}
}

func TestVerifyRejectsCorruption(t *testing.T) {
	tree, err := xtreesim.GenerateTree(xtreesim.FamilyRandom, 496, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := xtreesim.Embed(tree)
	if err != nil {
		t.Fatal(err)
	}
	// Pile everything onto the root: load explodes.
	for i := range res.Assignment {
		res.Assignment[i] = res.Assignment[0]
	}
	if err := xtreesim.Verify(res); err == nil {
		t.Error("Verify accepted load-496 vertex")
	}
}

func TestPublicSerializationRoundTrip(t *testing.T) {
	tree, err := xtreesim.GenerateTree(xtreesim.FamilyBroom, 240, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := xtreesim.Embed(tree)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := xtreesim.WriteResult(&sb, res); err != nil {
		t.Fatal(err)
	}
	back, err := xtreesim.ReadResult(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if err := xtreesim.CheckInvariants(back); err != nil {
		t.Error(err)
	}
}

func TestPublicUniversalForHeight(t *testing.T) {
	u := xtreesim.UniversalForHeight(2)
	if u.N() != 112 {
		t.Errorf("G over X(2) has %d slots", u.N())
	}
}

func TestPublicBFSPackAndSimulate(t *testing.T) {
	tree, err := xtreesim.GenerateTree(xtreesim.FamilyBST, 496, 6)
	if err != nil {
		t.Fatal(err)
	}
	base, err := xtreesim.Baseline(tree, xtreesim.MethodBFSPack)
	if err != nil {
		t.Fatal(err)
	}
	if base.Embedding().MaxLoad() != xtreesim.LoadTarget {
		t.Error("bfs-pack load wrong")
	}
	place := make([]int32, tree.N())
	for v, a := range base.Assignment {
		place[v] = int32(a.ID())
	}
	res, err := xtreesim.Simulate(netsim.Config{Host: base.Host.AsGraph(), Place: place},
		xtreesim.NewBroadcast(tree))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Error("broadcast delivered nothing")
	}
}

func TestPublicSimulateWithFaults(t *testing.T) {
	tree, err := xtreesim.GenerateTree(xtreesim.FamilyComplete, 255, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := xtreesim.Embed(tree)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := xtreesim.SimulateOnXTree(res, xtreesim.NewDivideConquer(tree, 1))
	if err != nil {
		t.Fatal(err)
	}
	plan := &xtreesim.FaultPlan{Seed: 4, DropProb: 0.1, MaxRetries: 20}
	faulty, err := xtreesim.SimulateOnXTree(res, xtreesim.NewDivideConquer(tree, 1),
		xtreesim.WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Drops == 0 || faulty.Retransmits == 0 {
		t.Errorf("fault plan injected nothing: %+v", faulty)
	}
	if faulty.Delivered != clean.Delivered {
		t.Errorf("delivered %d under faults, want %d", faulty.Delivered, clean.Delivered)
	}
	// The cap option must flow through too: an impossible cap errors.
	if _, err := xtreesim.SimulateOnTree(tree, xtreesim.NewDivideConquer(tree, 1),
		xtreesim.WithSimMaxCycles(1)); err == nil {
		t.Error("1-cycle cap not enforced through options")
	}
}

func TestPublicSimulateWithObservers(t *testing.T) {
	tree, err := xtreesim.GenerateTree(xtreesim.FamilyComplete, 255, 1)
	if err != nil {
		t.Fatal(err)
	}
	emb, err := xtreesim.Embed(tree)
	if err != nil {
		t.Fatal(err)
	}
	audit := xtreesim.NewLinkAudit()
	rec := xtreesim.NewTraceRecorder()
	ts := xtreesim.NewTimeSeries()
	res, err := xtreesim.SimulateOnXTree(emb, xtreesim.NewDivideConquer(tree, 1),
		xtreesim.WithObserver(audit, ts), xtreesim.WithTrace(rec))
	if err != nil {
		t.Fatal(err)
	}
	if err := audit.Err(); err != nil {
		t.Errorf("audit flagged a clean run: %v", err)
	}
	if len(rec.Events()) == 0 {
		t.Error("trace recorder saw no events")
	}
	if len(ts.Samples) != res.Cycles {
		t.Errorf("time series has %d samples, makespan %d", len(ts.Samples), res.Cycles)
	}
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("chrome trace is not valid JSON")
	}
}

func TestPublicServerRoundTrip(t *testing.T) {
	// An explicit queue so 2-way client concurrency never sheds, even on
	// a single-CPU box where the default is one slot and zero queue.
	srv := xtreesim.NewServer(xtreesim.ServerConfig{MaxConcurrent: 2, MaxQueue: 32})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	rep, err := xtreesim.RunLoad(xtreesim.LoadConfig{
		BaseURL: srv.URL(), Concurrency: 2, Requests: 12,
		TreeN: 255, DistinctShapes: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 12 || rep.Errors != 0 {
		t.Errorf("load run: %s", rep)
	}
	if rep.Latency.Summary().Count != 12 {
		t.Errorf("latency histogram saw %d samples", rep.Latency.Summary().Count)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestPublicLatencyHistogram(t *testing.T) {
	h := xtreesim.NewLatencyHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 1000) // 1ms .. 100ms
	}
	var s xtreesim.HistogramSummary = h.Summary()
	if s.Count != 100 || s.P50 <= 0 || s.P99 < s.P50 {
		t.Errorf("summary %+v", s)
	}
	custom := xtreesim.NewHistogram(1e-3, 10, 5)
	custom.Observe(0.5)
	if got := custom.Summary().Count; got != 1 {
		t.Errorf("custom histogram count %d", got)
	}
}

func TestPublicEngineUtilizationStats(t *testing.T) {
	eng := xtreesim.NewEngine(xtreesim.EngineConfig{Workers: 2})
	defer eng.Close()
	trees := make([]*xtreesim.Tree, 6)
	for i := range trees {
		tr, err := xtreesim.GenerateTree(xtreesim.FamilyRandom, 63, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		trees[i] = tr
	}
	for _, it := range eng.EmbedBatch(context.Background(), trees) {
		if it.Err != nil {
			t.Fatal(it.Err)
		}
	}
	s := eng.Stats()
	if s.BusyNanos <= 0 || s.UptimeNanos <= 0 {
		t.Errorf("busy/uptime counters did not move: %+v", s)
	}
	if u := s.Utilization(); u <= 0 || u > 1 {
		t.Errorf("utilization %v outside (0,1]", u)
	}
}
