package distsim

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"xtreesim/internal/bintree"
	"xtreesim/internal/core"
	"xtreesim/internal/graph"
	"xtreesim/internal/netsim"
	"xtreesim/internal/race"
	"xtreesim/internal/telemetry"
	"xtreesim/internal/xtree"
)

// scatter places guest process i on host vertex (i*7) mod v: co-located
// pairs, boundary crossings, and non-identity routes all occur.
func scatter(n, v int) []int32 {
	place := make([]int32, n)
	for i := range place {
		place[i] = int32((i * 7) % v)
	}
	return place
}

func TestDistsimByteIdentical(t *testing.T) {
	xt := xtree.New(6) // 127 vertices
	host := xt.AsGraph()
	v := host.N()
	tr := bintree.CompleteN(63)
	place := scatter(tr.N(), v)

	workloads := map[string]func() netsim.Workload{
		"divide":    func() netsim.Workload { return netsim.NewDivideConquer(tr, 2) },
		"broadcast": func() netsim.Workload { return netsim.NewBroadcast(tr) },
		"reduction": func() netsim.Workload { return netsim.NewScan(tr) },
		"exchange":  func() netsim.Workload { return netsim.NewExchange(tr, 3) },
	}
	plans := map[string]*netsim.FaultPlan{
		"faultfree": nil,
		"kills": {
			Seed:        11,
			VertexKills: []netsim.VertexKill{{V: 9, Cycle: 4}, {V: 40, Cycle: 7}},
			LinkKills:   []netsim.LinkKill{{U: 1, V: 2, Cycle: 3}, {U: 5, V: 11, Cycle: 6}},
		},
		"probs":    {Seed: 42, DropProb: 0.05, CorruptProb: 0.05},
		"combined": {Seed: 7, DropProb: 0.03, CorruptProb: 0.04, VertexKills: []netsim.VertexKill{{V: 21, Cycle: 5}}},
		// Vertex 30 is dead from boot, so its links die before any queue
		// exists; then the schedule repeats itself: the link 14–30 of the
		// dead vertex, the link 1–3 listed twice (once reversed), and a
		// second kill of vertex 30.  Every repeat must fire nothing.
		"bootdup": {
			Seed:        13,
			DropProb:    0.02,
			VertexKills: []netsim.VertexKill{{V: 30, Cycle: 0}, {V: 30, Cycle: 6}},
			LinkKills:   []netsim.LinkKill{{U: 1, V: 3, Cycle: 3}, {U: 14, V: 30, Cycle: 4}, {U: 3, V: 1, Cycle: 5}},
		},
	}

	for wlName, mkWL := range workloads {
		for planName, plan := range plans {
			base := netsim.Config{Host: host, Place: place, Faults: plan, MaxCycles: 4000}
			refTrace := netsim.NewTraceRecorder()
			refCfg := base
			refCfg.Observers = []netsim.Observer{refTrace}
			refRes, refErr := netsim.Run(refCfg, mkWL())
			for _, parts := range []int{1, 2, 4, 8} {
				name := wlName + "/" + planName + "/p" + string(rune('0'+parts))
				t.Run(name, func(t *testing.T) {
					trace := netsim.NewTraceRecorder()
					cfg := base
					// A live telemetry pipe with a deliberately tiny ring and
					// a subscriber that never reads: the Result and trace must
					// stay byte-identical anyway, with the overflow surfacing
					// as counted drops instead of backpressure.
					hub := telemetry.NewHub(32)
					rec := telemetry.NewRecorder(hub, "t-"+name)
					rec.StreamHops = true
					stalled := hub.Subscribe(0)
					var shardSamples atomic.Int64
					audit := netsim.NewLinkAudit()
					cfg.Observers = []netsim.Observer{trace, rec, audit}
					res, err := RunContext(context.Background(), Config{Sim: cfg, Partitions: parts, Partition: XTreeSubtrees,
						ShardSampler: func(s ShardSample) {
							shardSamples.Add(1)
							rec.Publish(telemetry.Event{
								TraceEvent: netsim.TraceEvent{Type: telemetry.EventShard, Cycle: s.Cycle},
								Shard:      s.Shard, Hops: s.Hops, BoundaryOut: s.BoundaryOut,
								BarrierWaitNanos: s.BarrierWaitNanos,
							})
						}}, mkWL())
					hub.Close()
					if fmt.Sprint(err) != fmt.Sprint(refErr) {
						t.Fatalf("error mismatch:\n dist: %v\n ref:  %v", err, refErr)
					}
					if err := audit.Err(); err != nil {
						t.Fatal(err)
					}
					if published := hub.Published(); published == 0 {
						t.Fatal("telemetry hub saw no events")
					} else if got := shardSamples.Load(); got == 0 {
						t.Fatal("shard sampler never fired")
					} else if want := int64(res.Cycles) * int64(parts); got != want {
						t.Fatalf("shard samples: got %d, want cycles(%d) x parts(%d) = %d",
							got, res.Cycles, parts, want)
					}
					stalled.Close()
					if pub := hub.Published(); pub > 32 && hub.Dropped() != pub-32 {
						t.Fatalf("stalled subscriber drops: got %d, want %d", hub.Dropped(), pub-32)
					}
					if !reflect.DeepEqual(res, refRes) {
						t.Fatalf("result mismatch:\n dist: %+v\n ref:  %+v", res, refRes)
					}
					// The audit reads the merged stream, so it checks every
					// shard's hops only if every one of them reaches it.
					de, re := trace.Events(), refTrace.Events()
					hops := 0
					for i := range de {
						if de[i].Type == netsim.EventHop {
							hops++
						}
					}
					if hops != res.HopsTotal {
						t.Fatalf("trace holds %d hops, HopsTotal %d", hops, res.HopsTotal)
					}
					if len(de) != len(re) {
						t.Fatalf("trace length mismatch: dist %d, ref %d", len(de), len(re))
					}
					for i := range de {
						if de[i] != re[i] {
							t.Fatalf("trace diverges at event %d:\n dist: %+v\n ref:  %+v", i, de[i], re[i])
						}
					}
				})
			}
		}
	}
}

// TestCappedRunsMatch holds sharded runs equal to netsim.Run's one shard
// on runs that the cycle cap stops: every shard queues a cycle's emissions
// at the start of the next cycle, so a run cut short reports the same
// backlog peak at any shard count.
func TestCappedRunsMatch(t *testing.T) {
	host := xtree.New(6).AsGraph()
	tr := bintree.CompleteN(63)
	workloads := map[string]func() netsim.Workload{
		"divide":    func() netsim.Workload { return netsim.NewDivideConquer(tr, 2) },
		"broadcast": func() netsim.Workload { return netsim.NewBroadcast(tr) },
		"exchange":  func() netsim.Workload { return netsim.NewExchange(tr, 3) },
	}
	for name, mkWL := range workloads {
		for capCycles := 1; capCycles <= 16; capCycles++ {
			cfg := netsim.Config{Host: host, Place: scatter(tr.N(), host.N()), MaxCycles: capCycles}
			ref, refErr := netsim.Run(cfg, mkWL())
			for _, parts := range []int{1, 2, 4} {
				res, err := RunContext(context.Background(), Config{Sim: cfg, Partitions: parts, Partition: XTreeSubtrees}, mkWL())
				if res != ref || fmt.Sprint(err) != fmt.Sprint(refErr) {
					t.Fatalf("%s capped at %d, p=%d:\n dist: %+v %v\n ref:  %+v %v", name, capCycles, parts, res, err, ref, refErr)
				}
			}
		}
	}
}

// TestDistsimBlocksOnTreeHost runs the same equivalence on a plain tree
// host with identity placement and the topology-blind partitioner.
func TestDistsimBlocksOnTreeHost(t *testing.T) {
	tr := bintree.CompleteN(127)
	host := tr.AsGraph()
	base := netsim.Config{Host: host, Place: netsim.IdentityPlacement(tr.N()),
		Faults: &netsim.FaultPlan{Seed: 3, DropProb: 0.02}, MaxCycles: 4000}
	refRes, refErr := netsim.Run(base, netsim.NewDivideConquer(tr, 3))
	for _, parts := range []int{2, 4, 8} {
		audit := netsim.NewLinkAudit()
		cfg := base
		cfg.Observers = []netsim.Observer{audit}
		res, err := RunContext(context.Background(), Config{Sim: cfg, Partitions: parts}, netsim.NewDivideConquer(tr, 3))
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("p=%d error mismatch: %v vs %v", parts, err, refErr)
		}
		if err := audit.Err(); err != nil {
			t.Fatalf("p=%d: %v", parts, err)
		}
		if !reflect.DeepEqual(res, refRes) {
			t.Fatalf("p=%d result mismatch:\n dist: %+v\n ref:  %+v", parts, res, refRes)
		}
	}
}

// TestCrossBoundaryKill pins the satellite regression: a vertex kill
// exactly on a shard boundary must reproduce the one-shard run's Drops,
// Reroutes, Retransmits, and Unreachable counters bit for bit.
func TestCrossBoundaryKill(t *testing.T) {
	xt := xtree.New(5) // 63 vertices
	host := xt.AsGraph()
	tr := bintree.CompleteN(31)
	place := scatter(tr.N(), host.N())
	for _, parts := range []int{2, 4} {
		owner := XTreeSubtrees(host, parts)
		// Find a vertex whose neighborhood spans shards: killing it
		// flushes queues on several partitions in one schedule step.
		kill := int32(-1)
		for u := 0; u < host.N(); u++ {
			for _, nb := range host.Neighbors(u) {
				if owner[nb] != owner[u] {
					kill = int32(u)
					break
				}
			}
			if kill >= 0 {
				break
			}
		}
		if kill < 0 {
			t.Fatalf("p=%d: no boundary vertex found", parts)
		}
		plan := &netsim.FaultPlan{Seed: 5, VertexKills: []netsim.VertexKill{{V: kill, Cycle: 3}}}
		base := netsim.Config{Host: host, Place: place, Faults: plan, MaxCycles: 4000}
		refRes, refErr := netsim.Run(base, netsim.NewDivideConquer(tr, 2))
		audit := netsim.NewLinkAudit()
		cfg := base
		cfg.Observers = []netsim.Observer{audit}
		res, err := RunContext(context.Background(), Config{Sim: cfg, Partitions: parts, Partition: XTreeSubtrees},
			netsim.NewDivideConquer(tr, 2))
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("p=%d kill=%d error mismatch: %v vs %v", parts, kill, err, refErr)
		}
		if err := audit.Err(); err != nil {
			t.Fatalf("p=%d kill=%d: %v", parts, kill, err)
		}
		if !reflect.DeepEqual(res, refRes) {
			t.Fatalf("p=%d kill=%d result mismatch:\n dist: %+v\n ref:  %+v", parts, kill, res, refRes)
		}
		if res.Drops != refRes.Drops || res.Reroutes != refRes.Reroutes || res.Unreachable != refRes.Unreachable {
			t.Fatalf("p=%d fault counters diverge", parts)
		}
	}
}

// TestOversizedHostMirrored pins the cap on both entry points: a host over
// MaxHostVertices that is not a tree, with no NextHop router, must produce
// a clear error naming the cap and the escape hatch, not a V² allocation
// or a panic.  A path of the same size is a tree, which both simulate
// without tables and with identical results.
func TestOversizedHostMirrored(t *testing.T) {
	n := netsim.MaxHostVertices + 10
	path := graph.New(n)
	for i := 0; i+1 < n; i++ {
		path.AddEdge(i, i+1)
	}
	g := path.Clone()
	g.AddEdge(n-1, 0) // a ring: not a tree
	runners := map[string]func(netsim.Config, netsim.Workload) (netsim.Result, error){
		"netsim": netsim.Run,
		"distsim": func(cfg netsim.Config, wl netsim.Workload) (netsim.Result, error) {
			return RunContext(context.Background(), Config{Sim: cfg, Partitions: 2}, wl)
		},
	}
	cfg := netsim.Config{Host: g, Place: []int32{0, int32(n - 1)}}
	for name, run := range runners {
		_, err := run(cfg, netsim.NewBroadcast(bintree.CompleteN(1)))
		if err == nil {
			t.Fatalf("%s: no error for oversized host", name)
		}
		for _, want := range []string{"4096", "NextHop"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", name, err, want)
			}
		}
	}
	pathCfg := netsim.Config{Host: path, Place: []int32{0, int32(n - 1)}}
	ref, err := netsim.Run(pathCfg, netsim.NewBroadcast(bintree.CompleteN(2)))
	if err != nil || ref.Delivered != 1 || ref.Cycles != n-1 {
		t.Fatalf("netsim on the oversized path: %+v, %v; want 1 delivery in %d cycles", ref, err, n-1)
	}
	res, err := runners["distsim"](pathCfg, netsim.NewBroadcast(bintree.CompleteN(2)))
	if err != nil {
		t.Fatalf("distsim on the oversized path: %v", err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Fatalf("oversized path diverges:\n dist: %+v\n ref:  %+v", res, ref)
	}
}

func TestBlocksPartitioner(t *testing.T) {
	g := graph.New(10)
	owner := Blocks(g, 3)
	if len(owner) != 10 {
		t.Fatalf("owner covers %d vertices", len(owner))
	}
	counts := map[int32]int{}
	prev := int32(0)
	for _, o := range owner {
		if o < 0 || o >= 3 {
			t.Fatalf("owner %d out of range", o)
		}
		if o < prev {
			t.Fatalf("Blocks not contiguous")
		}
		prev = o
		counts[o]++
	}
	for s := int32(0); s < 3; s++ {
		if counts[s] < 3 || counts[s] > 4 {
			t.Fatalf("shard %d owns %d of 10 vertices", s, counts[s])
		}
	}
}

func TestXTreeSubtreesPartitioner(t *testing.T) {
	xt := xtree.New(6)
	host := xt.AsGraph()
	for _, parts := range []int{2, 4, 8} {
		owner := XTreeSubtrees(host, parts)
		seen := map[int32]bool{}
		for v, o := range owner {
			if o < 0 || int(o) >= parts {
				t.Fatalf("p=%d vertex %d -> shard %d", parts, v, o)
			}
			seen[o] = true
		}
		if len(seen) != parts {
			t.Fatalf("p=%d only %d shards populated", parts, len(seen))
		}
		// Subtree locality: the X-tree-aware split must cut fewer links
		// than the topology-blind one.
		cut := func(owner []int32) int {
			n := 0
			for u := 0; u < host.N(); u++ {
				for _, nb := range host.Neighbors(u) {
					if owner[u] != owner[nb] {
						n++
					}
				}
			}
			return n
		}
		if xc, bc := cut(owner), cut(Blocks(host, parts)); xc >= bc {
			t.Errorf("p=%d: XTreeSubtrees cut %d >= Blocks cut %d", parts, xc, bc)
		}
	}
	// A non-X-tree vertex count falls back to Blocks.
	g := graph.New(10)
	if got := XTreeSubtrees(g, 2); !reflect.DeepEqual(got, Blocks(g, 2)) {
		t.Fatalf("fallback mismatch: %v", got)
	}
}

// TestPartitionedRunAllocBudget gates the allocations of netsim's
// TestRunAllocBudget reference run (two waves of divide-and-conquer on a
// random n=2032 guest, seed 1, under the default embed on X(6)) sharded
// over 8 workers along X-tree subtrees.  Encoding every handoff into a
// frame and decoding it again cost 21,622 allocations, and handing the
// records over as Go values 14,688; with reused report buffers and the
// shards' sorted reports merged it allocated 2,102, with one queue arena
// per shard and the X(6) ranker shared 555, and with each shard's growing
// buffers handed from run to run through netsim's scratch pool, 330.
// Under the race detector the pool may drop them, and the budget is the
// 690 that held before.
func TestPartitionedRunAllocBudget(t *testing.T) {
	tr, err := bintree.Generate(bintree.FamilyRandom, 2032, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.EmbedXTree(tr, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Sim: netsim.OnXTree(res.Host, res.Assignment), Partitions: 8, Partition: XTreeSubtrees}
	r, err := RunContext(context.Background(), cfg, netsim.NewDivideConquer(tr, 2))
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != 122 || r.HopsTotal != 5748 {
		t.Fatalf("reference run took %d cycles and %d hops, want 122 and 5748", r.Cycles, r.HopsTotal)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := RunContext(context.Background(), cfg, netsim.NewDivideConquer(tr, 2)); err != nil {
			t.Fatal(err)
		}
	})
	budget := 412.0
	if race.Enabled {
		budget = 690
	}
	if allocs > budget {
		t.Errorf("reference run at 8 shards allocates %.0f times, budget %.0f", allocs, budget)
	}
	t.Logf("reference run at 8 shards: %.0f allocations", allocs)
}

// TestBoundaryCountersReconcile pins the one boundary count on a faulted
// run: each shard's end-of-run BoundaryOut is the sum of its per-cycle
// samples, the shards' totals sum to Stats.BoundaryMessages, and the
// shards' hops sum to the Result's.
func TestBoundaryCountersReconcile(t *testing.T) {
	xt := xtree.New(6)
	host := xt.AsGraph()
	tr := bintree.CompleteN(63)
	sim := netsim.Config{Host: host, Place: scatter(tr.N(), host.N()),
		Faults: &netsim.FaultPlan{Seed: 42, DropProb: 0.05, CorruptProb: 0.05, MaxRetries: 20}, MaxCycles: 4000}
	for _, parts := range []int{2, 4, 8} {
		sampled := make([]int, parts)
		res, st, err := RunStats(context.Background(), Config{Sim: sim, Partitions: parts,
			Partition:    XTreeSubtrees,
			ShardSampler: func(s ShardSample) { sampled[s.Shard] += s.BoundaryOut },
		}, netsim.NewDivideConquer(tr, 2))
		if err != nil {
			t.Fatalf("p=%d: %v", parts, err)
		}
		if res.Drops == 0 || st.BoundaryMessages == 0 {
			t.Fatalf("p=%d: %d drops and %d boundary messages, want both > 0", parts, res.Drops, st.BoundaryMessages)
		}
		if len(st.Partitions) != parts {
			t.Fatalf("p=%d: stats for %d partitions", parts, len(st.Partitions))
		}
		boundary, hops := 0, 0
		for k, ps := range st.Partitions {
			if ps.BoundaryOut != sampled[k] {
				t.Errorf("p=%d shard %d: BoundaryOut %d, samples sum to %d", parts, k, ps.BoundaryOut, sampled[k])
			}
			boundary += ps.BoundaryOut
			hops += ps.Hops
		}
		if boundary != st.BoundaryMessages {
			t.Errorf("p=%d: shards ship %d boundary messages, Stats says %d", parts, boundary, st.BoundaryMessages)
		}
		if hops != res.HopsTotal {
			t.Errorf("p=%d: shard hops sum to %d, HopsTotal %d", parts, hops, res.HopsTotal)
		}
	}
}
