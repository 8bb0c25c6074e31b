package main

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"xtreesim/internal/bintree"
	"xtreesim/internal/core"
	"xtreesim/internal/netsim"
	"xtreesim/internal/telemetry"
)

// realItem embeds a real tree and renders the wire item the server sends.
func realItem(t *testing.T, n int) embedItem {
	t.Helper()
	res, err := core.EmbedXTree(bintree.CompleteN(n), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	emb := res.Embedding()
	return embedItem{N: n, Host: hostXTree, HostVertices: res.Host.NumVertices(), Height: res.Host.Height(),
		Dilation: emb.Dilation(), AvgDilation: emb.AverageDilation(), MaxLoad: res.MaxLoad(), Expansion: res.Expansion()}
}

func TestCheckRejectsCorruptedEmbeds(t *testing.T) {
	good := realItem(t, 1008)
	r := request{route: routeEmbed, host: hostXTree, shape: 0, sizes: []int{1008}}
	body := func(it embedItem) []byte { return mustJSON(embedResponse{Items: []embedItem{it}}) }
	chk := newChecker()
	if err := chk.embedBody(r, body(good)); err != nil {
		t.Fatalf("real answer rejected: %v", err)
	}

	cases := []struct {
		name string
		req  request
		item func(embedItem) embedItem
	}{
		{"xtree dilation 4", r, func(it embedItem) embedItem { it.Dilation = 4; return it }},
		{"xtree load 17", r, func(it embedItem) embedItem { it.MaxLoad = 17; return it }},
		{"missing dilation", r, func(it embedItem) embedItem { it.Dilation = 0; return it }},
		{"wrong n", r, func(it embedItem) embedItem { it.N = 1007; return it }},
		{"item error", r, func(it embedItem) embedItem { it.Error = "boom"; return it }},
		{"variant differs", r, func(it embedItem) embedItem { it.AvgDilation += 1e-9; return it }},
		{"hypercube dilation 5", request{route: routeEmbed, host: hostHypercube, shape: -1, sizes: []int{1008}},
			func(it embedItem) embedItem { it.Host, it.Dilation = hostHypercube, 5; return it }},
		{"universal dilation 2", request{route: routeEmbed, host: hostUniversal, shape: -1, sizes: []int{1008}},
			func(it embedItem) embedItem { it.Host, it.Dilation, it.MaxLoad = hostUniversal, 2, 1; return it }},
		{"injective load 2", request{route: routeEmbed, host: hostXTree, inj: true, shape: -1, sizes: []int{1008}},
			func(it embedItem) embedItem {
				sub := it
				sub.Dilation, sub.MaxLoad = 9, 2
				it.Injective = &sub
				return it
			}},
	}
	for _, c := range cases {
		if err := chk.embedBody(c.req, body(c.item(good))); err == nil {
			t.Errorf("%s: corrupted answer accepted", c.name)
		}
	}
}

// simulateAnswer runs one simulate body in-process and renders the
// server's response for it, plus the stream a stream=1 session sends.
func simulateAnswer(t *testing.T) (simulateResponse, [][]byte) {
	t.Helper()
	tree := bintree.CompleteN(1008)
	res, err := core.EmbedXTree(tree, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	place := make([]int32, tree.N())
	for v, a := range res.Assignment {
		place[v] = int32(a.ID())
	}
	hub := telemetry.NewHub(0)
	rec := telemetry.NewRecorder(hub, "s-1")
	item := realItem(t, 1008)
	rec.Publish(telemetry.Event{TraceEvent: netsim.TraceEvent{Type: telemetry.EventStart},
		Payload: mustJSON(streamStart{Embed: item})})
	sim, err := netsim.Run(netsim.Config{Host: res.Host.AsGraph(), Place: place, Observers: []netsim.Observer{rec}},
		netsim.NewBroadcast(tree))
	if err != nil {
		t.Fatal(err)
	}
	resp := simulateResponse{Embed: item, Sim: simCounters{Cycles: sim.Cycles, Delivered: sim.Delivered,
		HopsTotal: sim.HopsTotal, MaxLinkLoad: sim.MaxLinkLoad, MaxQueue: sim.MaxQueue,
		LatencyP50: sim.LatencyP50, LatencyP99: sim.LatencyP99, LatencyMax: sim.LatencyMax}}
	rec.Publish(telemetry.Event{TraceEvent: netsim.TraceEvent{Type: telemetry.EventResult}, Payload: mustJSON(resp)})
	hub.Close()
	var lines [][]byte
	sub := hub.Subscribe(0)
	for {
		events, _, ok, err := sub.Next(context.Background(), 0)
		if err != nil || !ok {
			break
		}
		for i := range events {
			b, err := json.Marshal(&events[i])
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, b)
		}
	}
	return resp, lines
}

func TestCheckRejectsCorruptedSimulations(t *testing.T) {
	resp, lines := simulateAnswer(t)
	r := request{route: routeSimulate, host: hostXTree, shape: 3, sizes: []int{1008}}
	chk := newChecker()
	if err := chk.simulateBody(r, mustJSON(resp)); err != nil {
		t.Fatalf("real answer rejected: %v", err)
	}
	bad := resp
	bad.Sim.Cycles++
	if err := chk.simulateBody(r, mustJSON(bad)); err == nil {
		t.Error("off-by-one cycles accepted")
	}

	stream := func(lines [][]byte) error {
		ss := streamState{session: "s-1"}
		for _, l := range lines {
			if err := ss.line(l); err != nil {
				return err
			}
		}
		res, err := ss.finish()
		if err == nil {
			err = chk.simulate(r, res)
		}
		return err
	}
	if err := stream(lines); err != nil {
		t.Fatalf("real stream rejected: %v", err)
	}
	if err := stream(lines[:len(lines)-1]); err == nil || !strings.Contains(err.Error(), "without a result") {
		t.Errorf("stream without a result event: got %v", err)
	}
	gap := append(append([][]byte(nil), lines[:2]...), lines[3:]...)
	if err := stream(gap); err == nil {
		t.Error("stream with a missing event and no dropped marker accepted")
	}
	wrong := append(append([][]byte(nil), lines[:len(lines)-1]...),
		mustJSON(telemetry.Event{TraceEvent: netsim.TraceEvent{SchemaVersion: telemetry.SchemaVersion,
			Type: telemetry.EventResult}, StreamSeq: uint64(len(lines) - 1), Session: "s-1", Payload: mustJSON(bad)}))
	if err := stream(wrong); err == nil {
		t.Error("stream whose result has off-by-one cycles accepted")
	}
}
