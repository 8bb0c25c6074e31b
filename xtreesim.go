// Package xtreesim reproduces Monien's "Simulating Binary Trees on
// X-Trees" (SPAA 1991) as a usable library: it embeds arbitrary binary
// trees into X-tree interconnection networks with dilation 3, load factor
// 16 and optimal expansion (Theorem 1), derives the injective dilation-11
// embedding (Theorem 2), the load-16 dilation-4 hypercube embedding
// (Theorem 3) and the degree-415 universal graph for binary trees
// (Theorem 4), and ships a synchronous network simulator to measure the
// slowdown such embeddings induce on real tree-shaped workloads — on a
// perfect network or under deterministic fault injection (WithFaults).
//
// # Quick start
//
//	tree, _ := xtreesim.GenerateTree(xtreesim.FamilyRandom, 1008, 42)
//	res, _ := xtreesim.Embed(tree)
//	fmt.Println(res.Dilation(), res.MaxLoad()) // ≤3, ≤16
//
// Embed takes functional options (WithHeight, WithStrict), Baseline
// selects its method the same way, and batches of trees run concurrently
// through the caching engine (NewEngine, EmbedBatch in batch.go).
//
// The internal packages hold the machinery: internal/core (algorithm
// X-TREE with ADJUST/SPLIT), internal/separator (the tree-separation
// lemmas), internal/xtree, internal/hypercube, internal/universal,
// internal/baseline and internal/netsim.  This package is the stable
// façade over them.
package xtreesim

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"xtreesim/internal/baseline"
	"xtreesim/internal/bintree"
	"xtreesim/internal/bitstr"
	"xtreesim/internal/core"
	"xtreesim/internal/distsim"
	"xtreesim/internal/hypercube"
	"xtreesim/internal/metrics"
	"xtreesim/internal/netsim"
	"xtreesim/internal/universal"
	"xtreesim/internal/xtree"
)

// Re-exported core types.  The aliases keep one set of concrete types
// across the library, the examples and the benchmarks.
type (
	// Tree is a rooted binary tree guest (max degree 3).
	Tree = bintree.Tree
	// Family names a guest-tree generator family.
	Family = bintree.Family
	// Addr is a binary-string X-tree vertex address.
	Addr = bitstr.Addr
	// XTree is the X-tree host network X(r).
	XTree = xtree.XTree
	// Hypercube is the hypercube host Q_d.
	Hypercube = hypercube.Hypercube
	// Result is a Theorem 1 embedding result with measured statistics.
	Result = core.Result
	// InjectiveResult is a Theorem 2 embedding result.
	InjectiveResult = core.InjectiveResult
	// HypercubeResult is a Theorem 3 embedding result.
	HypercubeResult = core.HypercubeResult
	// UniversalGraph is the Theorem 4 graph G_n of degree ≤ 415.
	UniversalGraph = universal.Graph
	// Embedding carries the quality metrics of any embedding.
	Embedding = metrics.Embedding
	// Report summarizes an embedding's metrics.
	Report = metrics.Report
	// BaselineResult is a naive comparison embedding.
	BaselineResult = baseline.Result
	// SimConfig configures a network-simulator run.
	SimConfig = netsim.Config
	// SimResult summarizes a simulator run.
	SimResult = netsim.Result
	// Workload is a guest program for the network simulator.
	Workload = netsim.Workload
	// Event is a guest-level simulator message.
	Event = netsim.Event
	// FaultPlan is a deterministic, seeded fault-injection schedule for
	// simulator runs (link/vertex kills, drops, corruption, retries).
	FaultPlan = netsim.FaultPlan
	// LinkKill schedules a permanent link failure in a FaultPlan.
	LinkKill = netsim.LinkKill
	// VertexKill schedules a permanent vertex failure in a FaultPlan.
	VertexKill = netsim.VertexKill
	// Observer receives read-only per-cycle and per-event simulator
	// callbacks; attach one with WithObserver.
	Observer = netsim.Observer
	// LinkAudit is the invariant-checking observer: one hop per link and
	// per message per cycle, counter conservation every cycle.
	LinkAudit = netsim.LinkAudit
	// TraceRecorder records simulator events for JSONL or Chrome-trace
	// export; attach one with WithTrace or WithObserver.
	TraceRecorder = netsim.TraceRecorder
	// TimeSeries records per-cycle queue/inflight/utilization samples.
	TimeSeries = netsim.TimeSeries
	// TraceEvent is one recorded simulator event in a TraceRecorder.
	TraceEvent = netsim.TraceEvent
	// CycleSample is one per-cycle TimeSeries measurement.
	CycleSample = netsim.CycleSample
)

// NewLinkAudit returns a ready-to-attach invariant auditor.
func NewLinkAudit() *LinkAudit { return netsim.NewLinkAudit() }

// NewTraceRecorder returns a ready-to-attach event recorder.
func NewTraceRecorder() *TraceRecorder { return netsim.NewTraceRecorder() }

// NewTimeSeries returns a ready-to-attach time-series collector.
func NewTimeSeries() *TimeSeries { return netsim.NewTimeSeries() }

// Guest-tree families for GenerateTree.
const (
	FamilyComplete    = bintree.FamilyComplete
	FamilyPath        = bintree.FamilyPath
	FamilyRandom      = bintree.FamilyRandom
	FamilyBST         = bintree.FamilyBST
	FamilyCaterpillar = bintree.FamilyCaterpillar
	FamilyBroom       = bintree.FamilyBroom
	FamilyZigzag      = bintree.FamilyZigzag
)

// Families lists every guest family in a stable order.
var Families = bintree.Families

// LoadTarget is the paper's load factor, 16.
const LoadTarget = core.LoadTarget

// UniversalDegreeBound is the paper's universal-graph degree bound, 415.
const UniversalDegreeBound = universal.DegreeBound

// GenerateTree builds an n-node guest tree of the given family from a
// deterministic seed.
func GenerateTree(f Family, n int, seed int64) (*Tree, error) {
	return bintree.Generate(f, n, rand.New(rand.NewSource(seed)))
}

// NewXTree returns the X-tree of the given height.
func NewXTree(height int) *XTree { return xtree.New(height) }

// OptimalHeight returns the smallest X-tree height whose load-16 capacity
// holds n guest nodes.
func OptimalHeight(n int) int { return core.OptimalHeight(n) }

// Capacity returns 16·(2^(r+1)−1), the load-16 capacity of X(r).
func Capacity(r int) int64 { return core.Capacity(r) }

// EmbedConfig is the resolved embedding configuration (host height,
// strict mode, ablation switches).  Most callers never touch it directly:
// they pass EmbedOptions to Embed or NewEmbedConfig instead.
type EmbedConfig = core.Options

// EmbedOption customizes Embed.  Options compose left to right; the
// zero-option call embeds into the optimal host with counted (non-fatal)
// invariant accounting, exactly as the theorem statements do.
type EmbedOption func(*EmbedConfig)

// WithHeight forces the host X-tree height (which may be larger than
// optimal).  Embed fails if X(height) cannot hold the guest at load 16.
func WithHeight(height int) EmbedOption {
	return func(o *EmbedConfig) { o.Height = height }
}

// WithStrict makes every violation of condition (3′) a hard error
// instead of a counted statistic.
func WithStrict() EmbedOption {
	return func(o *EmbedConfig) { o.Strict = true }
}

// WithParallel fans the ADJUST and SPLIT phases of each round out over n
// goroutines (the per-level tasks own disjoint host subtrees).  The
// embedding produced is byte-identical for every n; values below 2 run
// serially.
func WithParallel(n int) EmbedOption {
	return func(o *EmbedConfig) { o.Parallel = n }
}

// WithImbalanceStats enables the per-round A(j,i) instrumentation
// (Stats.MaxImbalance and Stats.ImbalanceMatrix).  Off by default: the
// matrix costs one extra full weight pass per round, which the serving
// hot path should not pay.
func WithImbalanceStats() EmbedOption {
	return func(o *EmbedConfig) { o.ImbalanceStats = true }
}

// NewEmbedConfig resolves functional options into an *EmbedConfig, for
// APIs that take the resolved form (EngineConfig.Options).
func NewEmbedConfig(opts ...EmbedOption) *EmbedConfig {
	o := core.DefaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	return &o
}

// Embed runs algorithm X-TREE: it embeds the guest into its optimal X-tree
// with dilation ≤ 3 and load ≤ 16 (Theorem 1).  Options adjust the host
// height and the error discipline:
//
//	res, err := xtreesim.Embed(tree)                             // Theorem 1
//	res, err := xtreesim.Embed(tree, xtreesim.WithStrict())      // invariants as errors
//	res, err := xtreesim.Embed(tree, xtreesim.WithHeight(9))     // oversized host
func Embed(t *Tree, opts ...EmbedOption) (*Result, error) {
	return core.EmbedXTree(t, *NewEmbedConfig(opts...))
}

// EmbedInjective derives Theorem 2 from a Theorem 1 result: a one-to-one
// embedding into X(r+4) with dilation ≤ 11.
func EmbedInjective(res *Result) (*InjectiveResult, error) {
	return core.EmbedInjective(res)
}

// EmbedHypercube derives Theorem 3: composing with Lemma 3's map χ gives a
// load-16 dilation-≤4 embedding into the hypercube.
func EmbedHypercube(res *Result) *HypercubeResult {
	return core.EmbedHypercube(res)
}

// InjectiveHypercubeOf composes Theorem 2's injective X-tree embedding
// with Lemma 3's χ, giving an injective hypercube embedding with constant
// dilation.
func InjectiveHypercubeOf(res *InjectiveResult) *HypercubeResult {
	return core.InjectiveHypercube(res)
}

// InjectiveHypercubeDirect is the paper's own corollary after Theorem 3:
// an injective hypercube embedding with dilation ≤ 8 (4 from the load-16
// embedding, 4 from tagging the co-located guests in extra dimensions).
func InjectiveHypercubeDirect(res *Result) *HypercubeResult {
	return core.InjectiveHypercubeDirect(res)
}

// NewUniversalGraph builds Theorem 4's graph G_n for n = 2^t − 16.
func NewUniversalGraph(n int64) (*UniversalGraph, error) {
	return universal.NewForNodes(n)
}

// UniversalForHeight builds the universal graph over X(r) regardless of
// the 2^t − 16 form.
func UniversalForHeight(r int) *UniversalGraph {
	return universal.NewForHeight(r)
}

// UniversalForAtLeast builds the smallest universal graph with at least n
// slot-vertices.  Every binary tree with up to that many nodes is then a
// subgraph (via UniversalGraph.EmbedAny) — the arbitrary-n generalization
// the paper leaves as a remark after Theorem 4.
func UniversalForAtLeast(n int) *UniversalGraph {
	return universal.NewForAtLeast(n)
}

// BaselineMethod selects one of the naive comparison embeddings the
// Monien construction is measured against (EXPERIMENTS.md, E9).
type BaselineMethod int

const (
	// MethodDFSPack fills the optimal host 16-per-vertex in preorder.
	MethodDFSPack BaselineMethod = iota
	// MethodBFSPack fills the optimal host 16-per-vertex in BFS order.
	MethodBFSPack
	// MethodNaive follows the guest's own child edges down the X-tree
	// (dilation ≤ 1, unbounded load).  Honors WithBaselineHeight;
	// defaults to the optimal height for the guest size.
	MethodNaive
	// MethodRandom packs a uniformly random permutation: the
	// "no locality at all" anchor.  Honors WithBaselineSeed.
	MethodRandom
)

// String names the method as the Result.Name of the produced embedding.
func (m BaselineMethod) String() string {
	switch m {
	case MethodDFSPack:
		return "dfs-pack"
	case MethodBFSPack:
		return "bfs-pack"
	case MethodNaive:
		return "naive-tree"
	case MethodRandom:
		return "random-pack"
	default:
		return fmt.Sprintf("baseline(%d)", int(m))
	}
}

type baselineConfig struct {
	height int
	seed   int64
}

// BaselineOption customizes Baseline.
type BaselineOption func(*baselineConfig)

// WithBaselineHeight forces the host height of MethodNaive (the other
// methods always use the optimal height).
func WithBaselineHeight(height int) BaselineOption {
	return func(c *baselineConfig) { c.height = height }
}

// WithBaselineSeed seeds MethodRandom's permutation (default 1).
func WithBaselineSeed(seed int64) BaselineOption {
	return func(c *baselineConfig) { c.seed = seed }
}

// Baseline computes the selected comparison embedding:
//
//	base, err := xtreesim.Baseline(tree, xtreesim.MethodDFSPack)
//	base, err := xtreesim.Baseline(tree, xtreesim.MethodNaive, xtreesim.WithBaselineHeight(6))
//	base, err := xtreesim.Baseline(tree, xtreesim.MethodRandom, xtreesim.WithBaselineSeed(9))
func Baseline(t *Tree, m BaselineMethod, opts ...BaselineOption) (*BaselineResult, error) {
	cfg := baselineConfig{height: -1, seed: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	switch m {
	case MethodDFSPack:
		return baseline.DFSPack(t), nil
	case MethodBFSPack:
		return baseline.BFSPack(t), nil
	case MethodNaive:
		h := cfg.height
		if h < 0 {
			h = core.OptimalHeight(t.N())
		}
		return baseline.NaiveTree(t, h), nil
	case MethodRandom:
		return baseline.RandomPack(t, rand.New(rand.NewSource(cfg.seed))), nil
	default:
		return nil, fmt.Errorf("xtreesim: unknown baseline method %d", int(m))
	}
}

// SimOption customizes a simulator run on top of the base SimConfig.
type SimOption func(*SimConfig)

// WithFaults injects a deterministic fault plan into the run: scheduled
// link/vertex kills, probabilistic drops and corruption, and the
// ack/retransmission delivery layer with BFS rerouting.  A nil or inert
// plan leaves the run byte-identical to a fault-free one.
func WithFaults(p *FaultPlan) SimOption {
	return func(c *SimConfig) { c.Faults = p }
}

// WithSimMaxCycles overrides the simulator's safety cap on cycles.
func WithSimMaxCycles(n int) SimOption {
	return func(c *SimConfig) { c.MaxCycles = n }
}

// WithPartitions shards the simulation across n parallel workers
// coordinated by a two-phase epoch barrier (internal/distsim).  The
// Result and the observer event stream are byte-identical to the
// single-process run for every n; values ≤ 1 run single-process.
// SimulateOnXTree partitions along X-tree subtrees, every other entry
// point along contiguous vertex blocks.
func WithPartitions(n int) SimOption {
	return func(c *SimConfig) { c.Partitions = n }
}

// WithObserver attaches one or more observers to the run.  Observers are
// read-only — the Result is byte-identical with or without them — and can
// be combined freely across calls; nil entries are ignored.
func WithObserver(obs ...Observer) SimOption {
	return func(c *SimConfig) { c.Observers = append(c.Observers, obs...) }
}

// WithTrace attaches the given TraceRecorder to the run; after the run,
// export with rec.WriteJSONL or rec.WriteChromeTrace.  Shorthand for
// WithObserver(rec) that keeps call sites self-documenting.
func WithTrace(rec *TraceRecorder) SimOption {
	return func(c *SimConfig) {
		if rec != nil {
			c.Observers = append(c.Observers, rec)
		}
	}
}

func applySimOptions(cfg SimConfig, opts []SimOption) SimConfig {
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// runSim dispatches a resolved config to the matching runner: the
// single-process loop, or — when WithPartitions asked for more than one
// shard — the distributed coordinator with the given partitioner.
func runSim(ctx context.Context, cfg SimConfig, wl Workload, part distsim.Partitioner) (SimResult, error) {
	if cfg.Partitions > 1 {
		return distsim.RunContext(ctx, distsim.Config{Sim: cfg, Partition: part}, wl)
	}
	cfg.Partitions = 0
	return netsim.RunContext(ctx, cfg, wl)
}

// Simulate runs a guest workload on a host with a placement.
func Simulate(cfg SimConfig, wl Workload, opts ...SimOption) (SimResult, error) {
	return SimulateContext(context.Background(), cfg, wl, opts...)
}

// SimulateContext is Simulate with cancellation: long netsim runs poll
// the context once per simulated cycle and return ctx.Err() when it
// fires, together with the statistics accumulated so far.
func SimulateContext(ctx context.Context, cfg SimConfig, wl Workload, opts ...SimOption) (SimResult, error) {
	return runSim(ctx, applySimOptions(cfg, opts), wl, nil)
}

// SimulateOnTree runs the workload on the guest's own topology — the
// ideal binary-tree machine the X-tree is simulating.
func SimulateOnTree(t *Tree, wl Workload, opts ...SimOption) (SimResult, error) {
	cfg := SimConfig{Host: t.AsGraph(), Place: netsim.IdentityPlacement(t.N())}
	return runSim(context.Background(), applySimOptions(cfg, opts), wl, nil)
}

// SimulateOnXTree runs the workload on the X-tree machine through the
// given embedding.
func SimulateOnXTree(res *Result, wl Workload, opts ...SimOption) (SimResult, error) {
	place := make([]int32, res.Guest.N())
	for v, a := range res.Assignment {
		place[v] = int32(a.ID())
	}
	cfg := SimConfig{Host: res.Host.AsGraph(), Place: place}
	return runSim(context.Background(), applySimOptions(cfg, opts), wl, distsim.XTreeSubtrees)
}

// NewDivideConquer builds the divide-and-conquer workload (waves ≥ 1).
func NewDivideConquer(t *Tree, waves int) Workload {
	return netsim.NewDivideConquer(t, waves)
}

// NewBroadcast builds the root-broadcast workload.
func NewBroadcast(t *Tree) Workload { return netsim.NewBroadcast(t) }

// NewExchange builds the BSP halo-exchange workload: every node trades one
// token with each tree neighbor per round.
func NewExchange(t *Tree, rounds int) Workload { return netsim.NewExchange(t, rounds) }

// NewScan builds the parallel-prefix workload (up-sweep reduction plus
// down-sweep distribution); it self-verifies its result, so Done() is only
// true if the simulated machine computed the correct prefix sums.
func NewScan(t *Tree) Workload { return netsim.NewScan(t) }

// WriteResult serializes an embedding to a line-oriented text format that
// ReadResult parses back; the node numbering survives the round trip.
func WriteResult(w io.Writer, res *Result) error { return core.WriteResult(w, res) }

// ReadResult parses the WriteResult format and re-validates it.
func ReadResult(r io.Reader) (*Result, error) { return core.ReadResult(r) }

// CheckInvariants independently re-verifies a result against the paper's
// conditions (load ≤ 16, condition (3′) on every edge, exact fill on
// theorem sizes).
func CheckInvariants(res *Result) error { return core.CheckInvariants(res) }

// Verify re-measures an embedding and errors if the paper's bounds are
// exceeded.
func Verify(res *Result) error {
	emb := res.Embedding()
	if err := emb.Validate(); err != nil {
		return err
	}
	if d := emb.Dilation(); d > 3 {
		return fmt.Errorf("xtreesim: dilation %d > 3", d)
	}
	if l := emb.MaxLoad(); l > LoadTarget {
		return fmt.Errorf("xtreesim: load %d > %d", l, LoadTarget)
	}
	return nil
}
