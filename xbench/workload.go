package main

// workload.go defines the three workloads as seeded request sequences and
// records, beside them, the prediction map: which end-to-end metric each
// per-layer metric should move, on which workload, and where the
// prediction is "no change".  Later performance work cites this map
// instead of re-deriving it.
//
// Request i of a workload is a pure function of (seed, i), so the same
// seed always gives a byte-identical sequence, and a run sends a prefix of
// it.  The server only ever receives generated trees as "encoded" strings.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"

	"xtreesim/internal/bintree"
)

const (
	wlEmbedHot  = "embed-hot"
	wlEmbedCold = "embed-cold"
	wlSimulate  = "simulate"
)

// workloadDef is one row of BENCHMARK.json's workloads.
type workloadDef struct {
	name string
	why  string
	// perSecond sizes the prefix generated before the server starts: at
	// least 1.3x the request rate measured at the parent commit on a
	// 2-CPU host.  A faster server runs past it into requests generated
	// on demand (outside the latency window), so the sequence never ends.
	perSecond int
	// replay is how many requests of the sequence the traced run replays.
	replay int
}

var workloadDefs = []workloadDef{
	{wlEmbedHot,
		"cache-resident serving: fresh swaps of 64 warmed shapes make every hit pay for encode, remap, derivations and wire metrics",
		450, 600},
	{wlEmbedCold,
		"every tree misses and evicts: the embedder, the engine's miss/fill/evict path and its worker queue do the work",
		130, 24},
	{wlSimulate,
		"warm embeds feed routing, the cycle loop, retransmission, the distsim barrier, the ideal-tree baseline and the telemetry stream",
		400, 160},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// metricDef is one metric with its prediction: the end-to-end metric a
// change to it should move (moves), and the workload where it should show
// (on).  The traced-run and /metrics sources are described in replay.go
// and reconcile.go.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: the share of the parent's median a run may worsen by
	moves  string
	on     string
}

// endToEnd are the metrics a caller of the API sees, measured with tracing
// off.  failed_frac is carried by the result's attempted/failed counts
// (it is 0 at the parent commit and every failure fails the run), and the
// simulate-only stream metric is per-layer telemetry.first_event_p50_ms,
// because every end-to-end metric must be reported, non-zero, on every
// workload.
var endToEnd = []metricDef{
	{name: "throughput_rps", unit: "1/s", better: "higher", bound: 0.25},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "latency_p99_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "cpu_ms_per_req", unit: "ms", better: "lower", bound: 0.25},
	{name: "server_rss_mb", unit: "MB", better: "lower", bound: 0.20},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// perLayer is the prediction map.  Where a layer does no work on a
// workload its metric reads 0 there, and a change to that layer alone
// predicts no change on that workload's end-to-end metrics.
var perLayer = []metricDef{
	{"server.decode_us", "us", "lower", 0, "latency_p50_ms", "embed-cold (largest bodies)"},
	{"server.encode_us", "us", "lower", 0, "latency_p50_ms", "embed-hot"},
	{"server.unattributed_us", "us", "lower", 0, "throughput_rps", "embed-hot (shortest requests)"},
	{"server.shed_frac", "ratio", "lower", 0, "throughput_rps", "all (0 with nproc clients)"},
	{"bintree.decode_us", "us", "lower", 0, "latency_p50_ms", "embed-cold"},
	{"bintree.canonical_us", "us", "lower", 0, "latency_p50_ms", "embed-hot"},
	{"engine.hit_frac", "ratio", "higher", 0, "throughput_rps", "embed-hot (1.0); embed-cold (0)"},
	{"engine.hit_us", "us", "lower", 0, "latency_p50_ms", "embed-hot"},
	{"engine.miss_us", "us", "lower", 0, "throughput_rps", "embed-cold"},
	{"engine.queue_wait_us", "us", "lower", 0, "latency_p50_ms", "embed-cold (4 jobs per request on nproc workers)"},
	{"engine.evictions_per_miss", "ratio", "lower", 0, "server_rss_mb", "embed-cold"},
	{"core.embed_ns_per_node", "ns", "lower", 0, "throughput_rps, latency_p50_ms", "embed-cold"},
	{"core.hypercube_us", "us", "lower", 0, "throughput_rps", "embed-hot"},
	{"core.injective_us", "us", "lower", 0, "throughput_rps", "embed-hot"},
	{"metrics.wire_xtree_us", "us", "lower", 0, "latency_p50_ms, throughput_rps",
		"embed-hot; also throughput_rps on embed-cold and telemetry.first_event_p50_ms on simulate"},
	{"metrics.wire_hypercube_us", "us", "lower", 0, "throughput_rps", "embed-hot"},
	{"universal.build_us", "us", "lower", 0, "latency_p99_ms, throughput_rps", "embed-hot"},
	{"universal.embed_us", "us", "lower", 0, "latency_p99_ms", "embed-hot"},
	{"netsim.routing_us", "us", "lower", 0, "latency_p50_ms", "simulate"},
	{"netsim.run_us", "us", "lower", 0, "latency_p50_ms", "simulate"},
	{"netsim.ns_per_hop", "ns", "lower", 0, "throughput_rps, cpu_ms_per_req", "simulate"},
	{"netsim.baseline_us", "us", "lower", 0, "latency_p99_ms, server_rss_mb", "simulate"},
	{"distsim.overhead_ratio", "ratio", "lower", 0, "throughput_rps", "simulate"},
	{"distsim.barrier_wait_us", "us", "lower", 0, "throughput_rps", "simulate"},
	{"telemetry.events_per_session", "events", "lower", 0, "throughput_rps", "simulate"},
	{"telemetry.publish_ns_per_event", "ns", "lower", 0, "throughput_rps", "simulate"},
	{"telemetry.wire_ns_per_event", "ns", "lower", 0, "cpu_ms_per_req, latency_p50_ms", "simulate"},
	{"telemetry.dropped_frac", "ratio", "lower", 0,
		"must stay 0: a faster stream that drops events is a regression", "simulate"},
	{"telemetry.first_event_p50_ms", "ms", "lower", 0, "latency_p50_ms", "simulate (stream=1 requests)"},
}

// Where the prediction is "no change": a workload that bypasses the
// changed code after its warm pass should hold every end-to-end metric,
// and a claimed gain that moves it moved something else.
//
//	change only to ...                       no change on ...
//	core (embedder, separator, X-tree build) embed-hot, simulate (all hits)
//	engine hit path (lookup hit, remap)      embed-cold (no canonical code repeats)
//	engine miss/fill/evict path or queue     embed-hot, simulate (no misses)
//	universal                                embed-cold, simulate (only embed-hot sends it, 4%)
//	hypercube or injective derivation        embed-cold, simulate (only embed-hot asks, 20% and 2%)
//	netsim, distsim or telemetry             embed-hot, embed-cold (no simulations)
//	telemetry stream path                    netsim.run_us (measured without observers)
//	distsim                                  netsim.run_us (single-process runs)

// request is one element of a workload sequence: the exact bytes sent and
// what the answer check needs to know about them.
type request struct {
	route  string
	stream bool
	body   []byte
	host   string // embed host; simulate requests embed on the X-tree
	inj    bool   // the embed asked for the injective derivation
	shape  int    // embed-hot shape, or simulate base body; -1 otherwise
	sizes  []int  // guest sizes in body order
	// engineTrees counts trees that go through the server's engine (every
	// host but universal): the reconciliation target for its lookups.
	engineTrees int
	partitions  int
	baseline    bool
}

// workload is one instantiated workload: its sequence, its warm pass, and
// for embed-cold the cache fill.
type workload struct {
	def  workloadDef
	seed int64
	next func(i int) request
	warm []request
	// fill, when set, is sent after warm until the engine cache holds its
	// /metrics capacity: fill(0), fill(1), ...
	fill func(j int) request
	// pre holds the first requests, generated before the server starts.
	pre []request
}

// at returns request i: from the generated prefix, or generated now.
func (w *workload) at(i int) request {
	if i < len(w.pre) {
		return w.pre[i]
	}
	return w.next(i)
}

// pregenerate fills the prefix with n requests, spread over the CPUs.
func (w *workload) pregenerate(n int) {
	w.pre = make([]request, n)
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += workers {
				w.pre[i] = w.next(i)
			}
		}(g)
	}
	wg.Wait()
}

// Seed domains keep the random streams of different parts independent.
const (
	domShape = iota + 1
	domHot
	domCold
	domFill
	domSimTree
	domSimBase
	domHotBlock
	domSimBlock
	domSimParts
	domSimStream
)

// rngFor returns the random stream for element i of a domain: the
// splitmix64 finalizer spreads (seed, domain, i) over the seed space.
func rngFor(seed int64, domain, i int) *rand.Rand {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(domain)<<40 + uint64(i)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return rand.New(rand.NewSource(int64(z ^ (z >> 31))))
}

func newWorkload(name string, seed int64) (*workload, error) {
	def, ok := workloadByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	w := &workload{def: def, seed: seed}
	var err error
	switch name {
	case wlEmbedHot:
		err = w.initEmbedHot()
	case wlEmbedCold:
		err = w.initEmbedCold()
	case wlSimulate:
		err = w.initSimulate()
	}
	if err != nil {
		return nil, err
	}
	return w, nil
}

var hotSizes = []int{1008, 4080}

// initEmbedHot: 64 distinct shapes, 32 per size (one per deterministic
// family, the rest random and bst), each request a freshly swapped copy of
// one of them.  Hosts: xtree 74%, hypercube 20%, xtree+injective 2%,
// universal 4%; at 4% the universal requests fill the top of the latency
// distribution, so p99 falls inside that one mode.
func (w *workload) initEmbedHot() error {
	var shapes []*bintree.Tree
	seen := map[uint64]bool{}
	add := func(t *bintree.Tree) {
		if h := t.CanonicalHash(); !seen[h] {
			seen[h] = true
			shapes = append(shapes, t)
		}
	}
	for _, f := range []bintree.Family{bintree.FamilyComplete, bintree.FamilyPath,
		bintree.FamilyCaterpillar, bintree.FamilyBroom, bintree.FamilyZigzag} {
		for _, n := range hotSizes {
			t, err := bintree.Generate(f, n, nil)
			if err != nil {
				return err
			}
			add(t)
		}
	}
	for i := 0; len(shapes) < 64; i++ {
		fam := bintree.FamilyRandom
		if i%2 == 1 {
			fam = bintree.FamilyBST
		}
		t, err := bintree.Generate(fam, hotSizes[(i/2)%2], rngFor(w.seed, domShape, i))
		if err != nil {
			return err
		}
		add(t)
	}
	warm := embedRequest{Host: hostXTree}
	var sizes []int
	for _, t := range shapes {
		warm.Trees = append(warm.Trees, treeSpec{t.Encode()})
		sizes = append(sizes, t.N())
	}
	w.warm = []request{{route: routeEmbed, body: mustJSON(warm), host: hostXTree, shape: -1,
		sizes: sizes, engineTrees: len(shapes)}}

	var bySize [2][]int
	for i, t := range shapes {
		if t.N() == hotSizes[0] {
			bySize[0] = append(bySize[0], i)
		} else {
			bySize[1] = append(bySize[1], i)
		}
	}
	w.next = func(i int) request {
		// Every block of 100 requests holds, for each size, exactly 37
		// xtree, 10 hypercube, 1 injective and 2 universal requests.
		slot := blockSlot(w.seed, domHotBlock, i, 100)
		rng := rngFor(w.seed, domHot, i)
		class := bySize[slot%2]
		s := class[rng.Intn(len(class))]
		r := request{route: routeEmbed, host: hostXTree, shape: s, sizes: []int{shapes[s].N()}, engineTrees: 1}
		switch k := slot / 2; {
		case k < 37:
		case k < 47:
			r.host = hostHypercube
		case k < 48:
			r.inj = true
		default:
			r.host = hostUniversal
			r.engineTrees = 0
		}
		r.body = mustJSON(embedRequest{Tree: &treeSpec{encodeSwapped(shapes[s], rng)},
			Host: r.host, Injective: r.inj})
		return r
	}
	return nil
}

// blockSlot returns the slot request i fills in its block: each block of
// size requests is a seeded permutation of the slots 0..size-1, so the
// shares the slots encode hold exactly in every block, for every seed.
func blockSlot(seed int64, domain, i, size int) int {
	return rngFor(seed, domain, i/size).Perm(size)[i%size]
}

var coldSizes = []int{1008, 2032, 4080}

// initEmbedCold: batches of 4 fresh random or bst trees.  The fill trees
// come from their own seed domain, so the timed run never sends one.
func (w *workload) initEmbedCold() error {
	w.next = func(i int) request {
		rng := rngFor(w.seed, domCold, i)
		r := request{route: routeEmbed, host: hostXTree, shape: -1, engineTrees: 4}
		var req embedRequest
		for k := 0; k < 4; k++ {
			bst := rng.Intn(2) == 1
			n := coldSizes[rng.Intn(len(coldSizes))]
			var t *bintree.Tree
			if bst {
				t = bintree.RandomBSTShape(n, rng)
			} else {
				t = bintree.RandomAttachment(n, rng)
			}
			req.Trees = append(req.Trees, treeSpec{t.Encode()})
			r.sizes = append(r.sizes, t.N())
		}
		r.body = mustJSON(req)
		return r
	}
	// Fill trees are small, to keep set-up short, and alternate n = 256
	// and 257.  The engine picks a cache shard from the low bits of the
	// canonical code's FNV-1a hash, whose parity is the parity of n, so
	// trees of one parity reach only half the shards and the cache could
	// never fill with them alone.
	w.fill = func(j int) request {
		rng := rngFor(w.seed, domFill, j)
		r := request{route: routeEmbed, host: hostXTree, shape: -1}
		var req embedRequest
		for k := 0; k < 64; k++ {
			t := bintree.RandomAttachment(256+k%2, rng)
			req.Trees = append(req.Trees, treeSpec{t.Encode()})
			r.sizes = append(r.sizes, t.N())
		}
		r.engineTrees = len(r.sizes)
		r.body = mustJSON(req)
		return r
	}
	return nil
}

var simWorkloads = []string{"divide-conquer", "broadcast", "exchange", "scan"}

// simBase is one of the 128 simulate bodies; a request adds partitions
// and the stream flag independently.
type simBase struct {
	tree     int
	workload string
	faults   *faultSpec
	baseline bool
}

// initSimulate: 16 warmed trees (n 1008 and 2032), 128 bodies over them,
// 25% of which carry faults and 10% ask for the baseline; 25% of the
// requests use partitions=2 and 50% stream=1.
func (w *workload) initSimulate() error {
	trees := make([]string, 16)
	sizes := make([]int, 16)
	warm := embedRequest{Host: hostXTree}
	for i := range trees {
		fam := bintree.FamilyRandom
		if i%2 == 1 {
			fam = bintree.FamilyBST
		}
		n := 1008
		if i >= 8 {
			n = 2032
		}
		t, err := bintree.Generate(fam, n, rngFor(w.seed, domSimTree, i))
		if err != nil {
			return err
		}
		trees[i], sizes[i] = t.Encode(), n
		warm.Trees = append(warm.Trees, treeSpec{trees[i]})
	}
	w.warm = []request{{route: routeEmbed, body: mustJSON(warm), host: hostXTree, shape: -1,
		sizes: sizes, engineTrees: len(trees)}}

	// The body mix is stratified so that every seed has the same shares:
	// each tree carries each workload twice; each (tree size, workload)
	// stratum of 16 bodies has 4 with faults, and 1 (n=1008) or 2
	// (n=2032) asking for the baseline, plus one more n=1008 body: 13 of
	// 128.  Seeds change the trees and which bodies get faults and the
	// baseline.
	rng := rngFor(w.seed, domSimBase, 0)
	bases := make([]simBase, 128)
	for b := range bases {
		bases[b] = simBase{tree: b % len(trees), workload: simWorkloads[(b/len(trees))%len(simWorkloads)]}
	}
	pick := func(members []int, k int, set func(b int)) {
		rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
		for _, b := range members[:k] {
			set(b)
		}
	}
	for size := 0; size < 2; size++ {
		var rest []int
		for _, wl := range simWorkloads {
			var stratum []int
			for b, sb := range bases {
				if sb.tree/8 == size && sb.workload == wl {
					stratum = append(stratum, b)
				}
			}
			pick(stratum, 4, func(b int) {
				bases[b].faults = &faultSpec{Seed: rng.Int63n(1 << 31), DropProb: 0.02, CorruptProb: 0.01, MaxRetries: 20}
			})
			pick(stratum, 1+size, func(b int) { bases[b].baseline = true })
			rest = append(rest, stratum[1+size:]...)
		}
		if size == 0 {
			pick(rest, 1, func(b int) { bases[b].baseline = true })
		}
	}
	bodies := make([][2][]byte, len(bases)) // [partitions 0, partitions 2]
	for b, sb := range bases {
		for k, parts := range []int{0, 2} {
			bodies[b][k] = mustJSON(simulateRequest{Tree: treeSpec{trees[sb.tree]}, Workload: sb.workload,
				Baseline: sb.baseline, Faults: sb.faults, Partitions: parts})
		}
	}
	w.next = func(i int) request {
		// Every block of 128 requests sends each body once, 32 of them
		// with partitions=2 and 64 with stream=1.
		b := blockSlot(w.seed, domSimBlock, i, len(bases))
		r := request{route: routeSimulate, host: hostXTree, shape: b, sizes: []int{sizes[bases[b].tree]},
			engineTrees: 1, baseline: bases[b].baseline, body: bodies[b][0]}
		if blockSlot(w.seed, domSimParts, i, len(bases)) < len(bases)/4 {
			r.partitions, r.body = 2, bodies[b][1]
		}
		r.stream = blockSlot(w.seed, domSimStream, i, len(bases)) < len(bases)/2
		return r
	}
	return nil
}

// encodeSwapped writes t in bintree's nested-parenthesis format with the
// two child slots of every node swapped with probability 1/2: an
// isomorphic copy that the server must canonicalize and remap.
func encodeSwapped(t *bintree.Tree, rng *rand.Rand) string {
	var sb strings.Builder
	sb.Grow(3 * t.N())
	var rec func(v int32)
	rec = func(v int32) {
		if v == bintree.None {
			sb.WriteByte('.')
			return
		}
		l, r := t.Left(v), t.Right(v)
		if rng.Intn(2) == 1 {
			l, r = r, l
		}
		sb.WriteByte('(')
		rec(l)
		rec(r)
		sb.WriteByte(')')
	}
	rec(t.Root())
	return sb.String()
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the wire structs always marshal
	}
	return b
}
