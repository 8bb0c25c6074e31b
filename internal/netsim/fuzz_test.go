package netsim

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"xtreesim/internal/bintree"
)

// FuzzNetsimFaults drives the fault layer with arbitrary seeds, fault
// probabilities and kill schedules, and checks the properties that must
// hold for every plan: no panics, identical results on identical inputs
// (the package's determinism contract), counters that add up, a success
// error code exactly when the workload finished, and a sharded run that
// reproduces the single-process Result, error and event stream.
func FuzzNetsimFaults(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(5), uint8(2), uint8(0))
	f.Add(int64(42), uint8(0), uint8(0), uint8(0), uint8(1))
	f.Add(int64(-7), uint8(49), uint8(29), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, dropPct, corruptPct, linkKills, vertexKills uint8) {
		tr := bintree.CompleteN(31)
		host := tr.AsGraph()
		plan := &FaultPlan{
			Seed:        seed,
			DropProb:    float64(dropPct%50) / 100,
			CorruptProb: float64(corruptPct%30) / 100,
			MaxRetries:  6,
			BackoffBase: 1,
		}
		// Kills are derived from the fuzzed seed so the schedule is as
		// arbitrary as the corpus but always names real host edges.
		pick := rand.New(rand.NewSource(seed))
		edges := host.Edges()
		for i := 0; i < int(linkKills%4); i++ {
			e := edges[pick.Intn(len(edges))]
			plan.LinkKills = append(plan.LinkKills,
				LinkKill{U: int32(e[0]), V: int32(e[1]), Cycle: pick.Intn(20)})
		}
		for i := 0; i < int(vertexKills%3); i++ {
			plan.VertexKills = append(plan.VertexKills,
				VertexKill{V: int32(pick.Intn(host.N())), Cycle: pick.Intn(20)})
		}
		// Guest i sits on vertex 7i mod 23, except that every third guest
		// joins its parent: messages between the others take multi-hop
		// routes, which Phase 1 forwards, and those between the joined
		// pairs pass through memory queues.
		place := make([]int32, tr.N())
		for i := range place {
			place[i] = int32(i * 7 % 23)
			if i > 0 && i%3 == 0 {
				place[i] = place[(i-1)/2]
			}
		}
		cfg := Config{Host: host, Place: place, MaxCycles: 4000, Faults: plan}

		a, errA := Run(cfg, NewDivideConquer(tr, 1))
		b, errB := Run(cfg, NewDivideConquer(tr, 1))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("nondeterministic under faults:\na: %+v\nb: %+v", a, b)
		}
		if (errA == nil) != (errB == nil) {
			t.Fatalf("nondeterministic errors: %v vs %v", errA, errB)
		}

		wl := NewDivideConquer(tr, 1)
		res, err := Run(cfg, wl)
		if err == nil && !wl.Done() {
			t.Fatal("success reported but workload not done")
		}
		if res.Cycles > 4000 {
			t.Fatalf("Cycles %d exceeds the cap", res.Cycles)
		}
		if res.Drops < 0 || res.Retransmits < 0 || res.Reroutes < 0 || res.Unreachable < 0 || res.Corruptions < 0 {
			t.Fatalf("negative fault counter: %+v", res)
		}
		if res.MaxLinkLoad > res.HopsTotal {
			t.Fatalf("MaxLinkLoad %d > HopsTotal %d", res.MaxLinkLoad, res.HopsTotal)
		}
		if res.LatencyP50 > res.LatencyP99 || res.LatencyP99 > res.LatencyMax {
			t.Fatalf("latency percentiles out of order: %+v", res)
		}

		ref := NewTraceRecorder()
		refCfg := cfg
		refCfg.Observers = []Observer{ref}
		want, wantErr := Run(refCfg, NewDivideConquer(tr, 1))
		for _, shards := range []int{2, 3} {
			owner := make([]int32, host.N()) // contiguous blocks
			for v := range owner {
				owner[v] = int32(v * shards / host.N())
			}
			trace := NewTraceRecorder()
			shCfg := cfg
			shCfg.Observers = []Observer{trace}
			got, _, err := RunSharded(context.Background(), shCfg, NewDivideConquer(tr, 1),
				Sharding{Shards: shards, Owner: owner})
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%d shards: error %v, single-process %v", shards, err, wantErr)
			}
			if got != want {
				t.Fatalf("%d shards: result diverges:\n sharded: %+v\n single:  %+v", shards, got, want)
			}
			if !reflect.DeepEqual(trace.Events(), ref.Events()) {
				t.Fatalf("%d shards: event stream diverges (%d vs %d events)", shards,
					len(trace.Events()), len(ref.Events()))
			}
		}
	})
}
