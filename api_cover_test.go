package xtreesim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
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
	res, err := xtreesim.Simulate(netsim.OnXTree(base.Host, base.Assignment), xtreesim.NewBroadcast(tree))
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
	srv := xtreesim.NewServer(xtreesim.ServerConfig{})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL()+"/v1/embed", "application/json",
		strings.NewReader(`{"tree":{"family":"random","n":255,"seed":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"dilation"`) {
		t.Errorf("embed round trip: status %d: %s", resp.StatusCode, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
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
