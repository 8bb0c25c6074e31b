package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"xtreesim/internal/bintree"
	"xtreesim/internal/core"
	"xtreesim/internal/graph"
	"xtreesim/internal/race"
	"xtreesim/internal/xtree"
)

// xtreeNextHop routes on the X-tree's closed-form distance, with no tables.
func xtreeNextHop(x *xtree.XTree) func(cur, dst int32) int32 {
	return func(cur, dst int32) int32 { return int32(x.NextHopID(int64(cur), int64(dst))) }
}

// TestRoutedRunMatchesTableRunDeliveries checks that OnXTree's
// closed-form router produces the run the tables produce: XTree.NextHopID
// picks the tables' hop on every pair (TestNextHopIDMatchesTables), so the
// two Results are the same.
func TestRoutedRunMatchesTableRunDeliveries(t *testing.T) {
	tr := bintree.CompleteN(int(core.Capacity(4)))
	cfg := embeddedXTreeConfig(t, tr)
	tables := cfg
	tables.NextHop = nil
	tab, err := Run(tables, NewDivideConquer(tr, 2))
	if err != nil {
		t.Fatal(err)
	}
	routed, err := Run(cfg, NewDivideConquer(tr, 2))
	if err != nil {
		t.Fatal(err)
	}
	if routed != tab {
		t.Errorf("routed run diverges from the table run:\n routed: %+v\n tables: %+v", routed, tab)
	}
	if tab.Delivered == 0 {
		t.Errorf("reference run delivered nothing: %+v", tab)
	}
}

// TestNextHopIDMatchesTables pins the closed-form X-tree router to the BFS
// tables on every ordered pair of X(r) for r ≤ 9: where two shortest paths
// tie, both pick the same neighbor.  So every X-tree run (OnXTree) is the
// run the tables would make.
func TestNextHopIDMatchesTables(t *testing.T) {
	for r := 0; r <= 9; r++ {
		x := xtree.New(r)
		sameHopsAsTables(t, fmt.Sprintf("X(%d)", r), x.AsGraph(), xtreeNextHop(x))
	}
}

// TestRoutedRunBeyondTableCap runs on X(12) — 8191 vertices, beyond the
// table limit — which only the closed-form router makes possible.
func TestRoutedRunBeyondTableCap(t *testing.T) {
	if testing.Short() {
		t.Skip("large host")
	}
	// A modest guest on a large host: force height 12.
	tr := bintree.CompleteN(4095)
	res, err := core.EmbedXTree(tr, core.Options{Height: 12})
	if err != nil {
		t.Fatal(err)
	}
	cfg := OnXTree(res.Host, res.Assignment)
	if cfg.Host.N() <= MaxHostVertices {
		t.Fatalf("host unexpectedly small: %d", cfg.Host.N())
	}
	// Without the router it must refuse.
	tables := cfg
	tables.NextHop = nil
	if _, err := Run(tables, NewBroadcast(tr)); err == nil {
		t.Fatal("table-routed run beyond the cap accepted")
	}
	resSim, err := Run(cfg, NewBroadcast(tr))
	if err != nil {
		t.Fatal(err)
	}
	if resSim.Delivered != tr.N()-1 {
		t.Errorf("delivered %d", resSim.Delivered)
	}
}

// relabel returns g with its vertices renumbered by a random permutation,
// so that vertex 0, where the tree router roots itself, is an arbitrary
// vertex rather than the guest's root.
func relabel(g *graph.Graph, rng *rand.Rand) *graph.Graph {
	perm := rng.Perm(g.N())
	h := graph.New(g.N())
	for _, e := range g.Edges() {
		h.AddEdge(perm[e[0]], perm[e[1]])
	}
	return h
}

// sameHopsAsTables checks hop against BuildNextHopTables on every ordered
// pair of g's vertices, the diagonal included.
func sameHopsAsTables(t *testing.T, name string, g *graph.Graph, hop func(cur, dst int32) int32) {
	t.Helper()
	tables := BuildNextHopTables(g)
	for dst := range tables {
		for cur, want := range tables[dst] {
			if got := hop(int32(cur), int32(dst)); got != want {
				t.Fatalf("%s: hop %d->%d = %d, tables say %d", name, cur, dst, got, want)
			}
		}
	}
}

// TestTreeRouterMatchesTables pins the tree router to the BFS tables on
// every ordered pair: a tree has one path between two vertices, so any
// disagreement is a routing bug, not a tie-break.
func TestTreeRouterMatchesTables(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	hosts := map[string]*graph.Graph{}
	for _, f := range []bintree.Family{bintree.FamilyRandom, bintree.FamilyBST, bintree.FamilyPath,
		bintree.FamilyComplete, bintree.FamilyZigzag} {
		for _, n := range []int{1, 2, 3, 7, 64, 255} {
			tr, err := bintree.Generate(f, n, rng)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/n=%d", f, n)
			hosts[name] = tr.AsGraph()
			hosts[name+"/relabelled"] = relabel(tr.AsGraph(), rng)
		}
	}
	// A star and a random recursive tree: many children per vertex.
	star, rec := graph.New(40), graph.New(200)
	for v := 1; v < star.N(); v++ {
		star.AddEdge(0, v)
	}
	for v := 1; v < rec.N(); v++ {
		rec.AddEdge(rng.Intn(v), v)
	}
	hosts["star"], hosts["star/relabelled"] = star, relabel(star, rng)
	hosts["recursive/relabelled"] = relabel(rec, rng)
	for name, g := range hosts {
		tr := newTreeRouter(g)
		if tr == nil {
			t.Fatalf("%s: tree not detected", name)
		}
		sameHopsAsTables(t, name, g, tr.next)
	}
}

// TestRouterKeepsTablesOffTrees checks that the tree test admits trees
// only: each host below fails it (a cycle, or N−1 edges without being
// connected), so router falls back to the tables.
func TestRouterKeepsTablesOffTrees(t *testing.T) {
	chord := bintree.CompleteN(31).AsGraph()
	chord.AddEdge(7, 20)
	disconnected := graph.New(4) // a triangle and an isolated vertex
	disconnected.AddEdge(0, 1)
	disconnected.AddEdge(1, 2)
	disconnected.AddEdge(2, 0)
	isolatedZero := graph.New(4) // the same, with vertex 0 the isolated one
	isolatedZero.AddEdge(1, 2)
	isolatedZero.AddEdge(2, 3)
	isolatedZero.AddEdge(3, 1)
	for name, g := range map[string]*graph.Graph{
		"xtree":                  xtree.New(4).AsGraph(),
		"ring":                   cycleHost(),
		"tree plus chord":        chord,
		"triangle plus isolated": disconnected,
		"isolated zero":          isolatedZero,
	} {
		if newTreeRouter(g) != nil {
			t.Errorf("%s: routed as a tree", name)
		}
		hop, err := router(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameHopsAsTables(t, name, g, hop)
	}
}

// tableHop is the reference router: a lookup into BuildNextHopTables.
func tableHop(g *graph.Graph) func(cur, dst int32) int32 {
	tables := BuildNextHopTables(g)
	return func(cur, dst int32) int32 { return tables[dst][cur] }
}

// TestTreeRoutedRunMatchesTableRun is the oracle for the table-free path:
// on a tree host, a run without NextHop and a run whose NextHop reads the
// BFS tables give the same Result, the same error and the same observer
// stream, for every workload, with and without faults.  The hosts are the
// ideal machine of the baseline (every message crosses one link) and a
// relabelled copy, on which the same placement routes over several links.
func TestTreeRoutedRunMatchesTableRun(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tr, err := bintree.Generate(bintree.FamilyRandom, 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	hosts := map[string]*graph.Graph{"ideal": tr.AsGraph(), "relabelled": relabel(tr.AsGraph(), rng)}
	workloads := map[string]func() Workload{
		"divide":    func() Workload { return NewDivideConquer(tr, 2) },
		"broadcast": func() Workload { return NewBroadcast(tr) },
		"scan":      func() Workload { return NewScan(tr) },
		"exchange":  func() Workload { return NewExchange(tr, 2) },
	}
	for hostName, host := range hosts {
		plans := map[string]*FaultPlan{
			"faultfree": nil,
			"faults": {Seed: 21, DropProb: 0.02, CorruptProb: 0.02, MaxRetries: 30,
				LinkKills: []LinkKill{{U: 5, V: host.Neighbors(5)[0], Cycle: 6}}},
		}
		for wlName, mkWL := range workloads {
			for planName, plan := range plans {
				name := hostName + "/" + wlName + "/" + planName
				base := Config{Host: host, Place: IdentityPlacement(tr.N()), Faults: plan, MaxCycles: 5000}
				refTrace, trace := NewTraceRecorder(), NewTraceRecorder()
				refCfg, cfg := base, base
				refCfg.NextHop, refCfg.Observers = tableHop(host), []Observer{refTrace}
				cfg.Observers = []Observer{trace}
				ref, refErr := Run(refCfg, mkWL())
				res, err := Run(cfg, mkWL())
				if fmt.Sprint(err) != fmt.Sprint(refErr) {
					t.Fatalf("%s: error %v, table run %v", name, err, refErr)
				}
				if !reflect.DeepEqual(res, ref) {
					t.Fatalf("%s: result diverges:\n tree:  %+v\n table: %+v", name, res, ref)
				}
				if !reflect.DeepEqual(trace.Events(), refTrace.Events()) {
					t.Fatalf("%s: observer stream diverges (%d vs %d events)", name,
						len(trace.Events()), len(refTrace.Events()))
				}
				if plan != nil && (res.Drops == 0 || res.Corruptions == 0) {
					t.Errorf("%s: fault plan injected too little: %+v", name, res)
				}
			}
		}
	}
}

// idealRun is the ideal-tree baseline: waves of divide-and-conquer on the
// guest's own topology, one processor per guest node.
func idealRun(tb testing.TB, tr *bintree.Tree) {
	cfg := Config{Host: tr.AsGraph(), Place: IdentityPlacement(tr.N())}
	if _, err := Run(cfg, NewDivideConquer(tr, 2)); err != nil {
		tb.Fatal(err)
	}
}

// randomGuest is the random tree of n nodes the baseline benchmarks use.
func randomGuest(tb testing.TB, n int) *bintree.Tree {
	tr, err := bintree.Generate(bintree.FamilyRandom, n, rand.New(rand.NewSource(int64(n))))
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

func BenchmarkIdealBaseline(b *testing.B) {
	for _, n := range []int{1008, 4080} {
		tr := randomGuest(b, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				idealRun(b, tr)
			}
		})
	}
}

// BenchmarkRunXTree times runs shaped like simulate requests: one wave of
// divide-and-conquer on a random guest (seed 1) of n=1008 or n=2032 under
// the default embed on X(5) or X(6), routed in closed form (OnXTree).
func BenchmarkRunXTree(b *testing.B) {
	for _, n := range []int{1008, 2032} {
		tr, err := bintree.Generate(bintree.FamilyRandom, n, rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
		cfg := embeddedXTreeConfig(b, tr)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg, NewDivideConquer(tr, 1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestIdealBaselineAllocScaling gates the baseline's memory on its growth
// rather than on a wall clock: quadrupling the guest must not multiply the
// bytes one run allocates by more than 6.  Linear routing state measures
// about 4; a V² routing table measures about 15.
func TestIdealBaselineAllocScaling(t *testing.T) {
	bytes := func(n int) uint64 {
		tr := randomGuest(t, n)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		idealRun(t, tr)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := bytes(1008), bytes(4080)
	if ratio := float64(large) / float64(small); ratio > 6 {
		t.Errorf("n=4080 allocates %d bytes, %.1f× the %d at n=1008; want ≤ 6×", large, ratio, small)
	}
}

// TestRunAllocBudget gates the allocations of one X-tree run: two waves of
// divide-and-conquer on a random n=2032 guest (seed 1) under the default
// embed on X(6), 122 cycles and 5,748 hops.  It allocated 7,426 times
// while each cycle sorted its arrivals by reflection into a fresh slice,
// each next-hop table row was its own allocation and every workload
// message grew its own child list, and 1,697 times while every link and
// memory queue grew its own slice and every run numbered the host's links
// afresh; with one queue arena per shard and the X(6) ranker shared, it
// allocated 94 times, and with each shard's growing buffers handed from
// run to run through scratchPool, 43.  Under the race detector the pool
// may drop them, and the budget is the 115 that held before.
func TestRunAllocBudget(t *testing.T) {
	tr, err := bintree.Generate(bintree.FamilyRandom, 2032, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := embeddedXTreeConfig(t, tr)
	r, err := Run(cfg, NewDivideConquer(tr, 2))
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != 122 || r.HopsTotal != 5748 {
		t.Fatalf("reference run took %d cycles and %d hops, want 122 and 5748", r.Cycles, r.HopsTotal)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Run(cfg, NewDivideConquer(tr, 2)); err != nil {
			t.Fatal(err)
		}
	})
	budget := 53.0
	if race.Enabled {
		budget = 115
	}
	if allocs > budget {
		t.Errorf("reference run allocates %.0f times, budget %.0f", allocs, budget)
	}
	t.Logf("reference run: %.0f allocations", allocs)
}

// TestIdealBaselineAllocBudget gates the allocations of the ideal-tree
// baseline at n=1008 (idealRun): the guest's own tree as the host, routed
// table-free.  It allocated 5,476 times while the tree's graph grew its
// adjacency lists edge by edge and every link queue grew its own slice,
// 99 times while every run regrew its buffers, and 50 times now (120
// under the race detector, as before; see TestRunAllocBudget).
func TestIdealBaselineAllocBudget(t *testing.T) {
	tr := randomGuest(t, 1008)
	allocs := testing.AllocsPerRun(3, func() { idealRun(t, tr) })
	budget := 62.0
	if race.Enabled {
		budget = 120
	}
	if allocs > budget {
		t.Errorf("baseline run allocates %.0f times, budget %.0f", allocs, budget)
	}
	t.Logf("baseline run at n=1008: %.0f allocations", allocs)
}

// TestOnXTreeSharesHostPerHeight checks that OnXTree builds each height's
// host once: configs of one height share one Host, whose runs number
// their links with the height's shared ranker, while another graph of the
// same size gets a ranker of its own.
func TestOnXTreeSharesHostPerHeight(t *testing.T) {
	tr := bintree.CompleteN(int(core.Capacity(4))) // fills X(4)
	a, b := embeddedXTreeConfig(t, tr), OnXTree(xtree.New(4), nil)
	if a.Host != b.Host {
		t.Fatal("two X(4) configs hold different hosts")
	}
	shared := xtreeHostOf(4)
	r, err := newRun(a, NewBroadcast(tr))
	if err != nil {
		t.Fatal(err)
	}
	if r.links != shared.links {
		t.Error("a run on the shared X(4) host built its own edge ranker")
	}
	own := a
	own.Host = xtree.New(4).AsGraph()
	r, err = newRun(own, NewBroadcast(tr))
	if err != nil {
		t.Fatal(err)
	}
	if r.links == shared.links {
		t.Error("a run on a fresh X(4) graph borrowed the shared ranker")
	}
}

// TestOnXTreeConcurrentFirstCalls has goroutines ask for one height's host
// at once; under -race this also checks that the build is published
// safely.  No other test of the package runs on X(10), so in a fresh
// test process these are the height's first calls.
func TestOnXTreeConcurrentFirstCalls(t *testing.T) {
	const height = 10
	hosts := make([]*graph.Graph, 4)
	var wg sync.WaitGroup
	for i := range hosts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hosts[i] = OnXTree(xtree.New(height), nil).Host
		}(i)
	}
	wg.Wait()
	for i, h := range hosts {
		if h != hosts[0] {
			t.Fatalf("goroutine %d got its own X(%d) host", i, height)
		}
	}
	if got, want := hosts[0].N(), int(xtree.New(height).NumVertices()); got != want {
		t.Fatalf("shared X(%d) host has %d vertices, want %d", height, got, want)
	}
	if sharedLinks(hosts[0]) != xtreeHostOf(height).links {
		t.Fatal("the shared host's runs do not find its ranker")
	}
}
