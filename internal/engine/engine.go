// Package engine runs Theorem 1 embeddings through a bounded worker pool
// fronted by a canonical-tree cache: the batching layer that turns the
// single-threaded, from-scratch xtreesim.Embed into a service-shaped
// primitive.  EmbedBatchProfile is the one way in (EmbedBatch is its
// zero-profile shorthand).  Theorems 2 and 3 are cheap derivations of a
// Theorem 1 result, so callers derive them from the returned items.
//
// Two facts make the design pay off.  First, algorithm X-TREE is pure
// CPU with no shared state, so independent guests embed in parallel with
// no coordination beyond a job queue.  Second, real workloads repeat
// instance families endlessly — the same divide-and-conquer shapes, the
// same complete trees, mirrored subproblems — and an embedding is
// isomorphism-invariant: if two guests differ only by node numbering and
// child order, one embedding serves both after relabeling the
// assignment.  The engine therefore keys an LRU cache on
// bintree.CanonicalCode and answers cache hits with a remapped copy of
// the stored embedding instead of re-running the construction.
//
// The cache is sharded by bintree.HashCode of the canonical code
// (shard.go) so unrelated shapes stop contending on one mutex while
// isomorphic trees still collapse to one shard, and concurrent misses
// on the same shape coalesce into a single embed compute (coalesce.go)
// — a thundering herd of identical trees costs one embedding, with the
// waiters counted in Stats.Coalesced.
//
// One engine serves every option profile.  Theorem 1's construction is
// deterministic once the guest's shape, the host height and strict mode
// are fixed, so a job carries a Profile (strict mode, pinned height) and
// the cache and the coalescer key on the job's effective options plus
// the canonical code.  Under the zero Profile the key is the bare
// canonical code, so the default-profile path builds nothing extra.
//
// Batch calls take a context.Context: cancelling it stops unstarted work
// immediately (those items report ctx.Err()); embeddings already on a
// worker run to completion, bounding the cancellation latency by one
// embedding, not one batch.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xtreesim/internal/bintree"
	"xtreesim/internal/bitstr"
	"xtreesim/internal/core"
	"xtreesim/internal/trace"
)

// DefaultCacheSize is the cache capacity when Config.CacheSize is zero.
const DefaultCacheSize = 1024

// MaxCacheShards caps the automatic and requested shard counts; beyond
// a few hundred shards the striping gain is noise while the fixed
// footprint keeps growing.
const MaxCacheShards = 256

// ErrClosed is returned for work submitted after Close.
var ErrClosed = errors.New("engine: closed")

// Config configures a new Engine.  The zero value is usable: one worker
// per CPU and a DefaultCacheSize-entry cache striped over an automatic
// shard count.  Embedding options are not configured here: every job
// embeds with core.DefaultOptions() as varied by its Profile.  Every field
// is validated and clamped in one place, Config.normalize(), so the
// engine, the server's owned engine and the xtree-serve flags all
// resolve identical defaults.
type Config struct {
	// Workers is the number of concurrent embedders; ≤ 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// CacheSize is the canonical-tree LRU capacity in embeddings
	// across all shards; 0 means DefaultCacheSize, negative disables
	// caching entirely.
	CacheSize int
	// CacheShards is the number of independent cache shards the LRU is
	// striped across, selected by the top bits of bintree.HashCode of
	// the cache key so isomorphic trees still collapse to one shard.
	// 0 means an automatic per-worker default; values are rounded up to
	// a power of two and clamped to [1, min(CacheSize, MaxCacheShards)].
	CacheShards int
}

// normalize resolves every default and clamp in one place and returns
// the fully resolved configuration New runs with: Workers > 0,
// CacheSize > 0 (or exactly -1 when caching is disabled), CacheShards a
// power of two in [1, min(CacheSize, MaxCacheShards)] (or 0 when
// caching is disabled).
func (c Config) normalize() Config {
	out := c
	if out.Workers <= 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case out.CacheSize == 0:
		out.CacheSize = DefaultCacheSize
	case out.CacheSize < 0:
		out.CacheSize, out.CacheShards = -1, 0
		return out
	}
	shards := out.CacheShards
	if shards <= 0 {
		// A few shards per worker keeps same-shard collisions between
		// concurrently-processing workers rare without ballooning the
		// fixed footprint on small machines.
		shards = 4 * out.Workers
	}
	pow := 1
	for pow < shards && pow < MaxCacheShards {
		pow <<= 1
	}
	// Every shard must hold at least one entry, or capacity would be
	// silently lost: CacheShards never exceeds CacheSize.
	for pow > out.CacheSize {
		pow >>= 1
	}
	if pow < 1 {
		pow = 1
	}
	out.CacheShards = pow
	return out
}

// BatchItem is the outcome of one guest tree.  Exactly one of Result and
// Err is set, and Index is the tree's position in the input slice.
// CacheHit marks results remapped from the canonical-tree cache;
// Coalesced marks results remapped from a concurrent leader's compute (a
// singleflight wait, not a cache lookup).  Quality holds Result's
// dilation, mean dilation and max load, measured once when the embedding
// entered the cache (or, with caching disabled, when it was computed) and
// handed out with every item that entry answers, hits and coalesced waits
// included.
type BatchItem struct {
	Index     int
	Tree      *bintree.Tree
	Result    *core.Result
	Quality   core.Quality
	CacheHit  bool
	Coalesced bool
	Err       error
}

// Stats is a point-in-time snapshot of the engine counters.
type Stats struct {
	Workers   int
	Shards    int   // cache shards (0 when caching is disabled)
	CacheCap  int   // total cache capacity across shards (-1 when disabled)
	Hits      int64 // cache hits answered by remapping
	Misses    int64 // lookups that ran the full embedder (flight leaders included)
	Coalesced int64 // jobs that waited on a concurrent identical compute instead of running one
	Evictions int64 // cache entries evicted across all shards
	InFlight  int64 // jobs on a worker right now
	Submitted int64 // jobs accepted
	Completed int64 // jobs finished, including errors
	Errors    int64 // jobs finished with a non-nil Err

	EmbedNanos int64 // cumulative wall time inside core.EmbedXTree
	CacheLen   int   // embeddings currently cached

	// Snapshot/warm counters (see snapshot.go): records loaded into the
	// cache by Warm, and records Warm rejected as corrupt or stale.
	WarmLoaded  int64
	WarmSkipped int64
	// Observability counters: where submitted work spends its time.
	QueueWaitNanos int64 // cumulative time jobs sat queued before a worker took them
	BusyNanos      int64 // cumulative time workers spent processing jobs
	UptimeNanos    int64 // wall time since the engine started
}

// HitRate returns the fraction of lookups answered without running the
// embedder — cache hits plus coalesced waits — or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Lookups()
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Coalesced) / float64(total)
}

// Utilization returns the fraction of total worker-seconds spent
// processing jobs since the engine started, in [0, 1] (modulo snapshot
// skew while jobs are in flight).
func (s Stats) Utilization() float64 {
	if s.Workers <= 0 || s.UptimeNanos <= 0 {
		return 0
	}
	u := float64(s.BusyNanos) / (float64(s.UptimeNanos) * float64(s.Workers))
	if u > 1 {
		u = 1
	}
	return u
}

// AvgQueueWait returns the mean time a completed job waited in the queue
// before a worker picked it up.
func (s Stats) AvgQueueWait() time.Duration {
	if s.Completed == 0 {
		return 0
	}
	return time.Duration(s.QueueWaitNanos / s.Completed)
}

// Lookups returns the total cache lookups.  By construction every lookup
// is exactly a hit, a miss that computed, or a coalesced wait, whether
// or not caching is enabled.
func (s Stats) Lookups() int64 { return s.Hits + s.Misses + s.Coalesced }

// QueueDepth returns the jobs accepted but not yet on a worker: queued
// work waiting for capacity.  Clamped at 0 — the counters are sampled
// independently, so a snapshot taken mid-handoff could otherwise go
// transiently negative.
func (s Stats) QueueDepth() int64 {
	d := s.Submitted - s.Completed - s.InFlight
	if d < 0 {
		d = 0
	}
	return d
}

// Profile names the embedding options one job may vary.  The zero
// Profile embeds with core.DefaultOptions(); Strict turns strict mode
// on, and Height > 0 pins the host to X(Height).  Jobs whose effective
// options differ never share a cache entry or a flight.
type Profile struct {
	Strict bool
	Height int
}

type job struct {
	ctx      context.Context
	tree     *bintree.Tree
	prof     Profile
	index    int
	queuedAt time.Time
	deliver  func(BatchItem)
}

// Engine is a concurrent batch embedder.  All methods are safe for
// concurrent use.
type Engine struct {
	workers  int
	shards   int
	cacheCap int
	cache    *shardedLRU // nil when caching is disabled
	flights  *coalescer

	mu     sync.RWMutex // guards closed and sends on jobs
	closed bool
	jobs   chan job
	wg     sync.WaitGroup // the workers

	hits, misses, coalesced      atomic.Int64
	warmLoaded, warmSkipped      atomic.Int64
	inFlight                     atomic.Int64
	submitted, completed, errCnt atomic.Int64
	embedNanos                   atomic.Int64
	queueWaitNanos, busyNanos    atomic.Int64
	started                      time.Time
}

// New starts an engine with the given configuration (resolved through
// Config.normalize).  Callers own the engine and must Close it to
// release the workers.
func New(cfg Config) *Engine {
	cfg = cfg.normalize()
	e := &Engine{
		workers:  cfg.Workers,
		shards:   cfg.CacheShards,
		cacheCap: cfg.CacheSize,
		flights:  newCoalescer(),
		jobs:     make(chan job, 4*cfg.Workers),
		started:  time.Now(),
	}
	if cfg.CacheSize > 0 {
		e.cache = newShardedLRU(cfg.CacheSize, cfg.CacheShards)
	}
	e.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go e.worker()
	}
	return e
}

// Close stops accepting work and returns once every accepted job has
// finished and the workers have exited; work submitted afterwards
// reports ErrClosed.  Safe to call more than once.
func (e *Engine) Close() {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.jobs)
	}
	e.mu.Unlock()
	e.wg.Wait()
}

// send enqueues a job unless the engine is closed or ctx is done.
func (e *Engine) send(ctx context.Context, jb job) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	jb.queuedAt = time.Now()
	select {
	case e.jobs <- jb:
		e.submitted.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// EmbedBatch embeds every tree with the theorem-default options; it is
// EmbedBatchProfile with the zero Profile.
func (e *Engine) EmbedBatch(ctx context.Context, trees []*bintree.Tree) []BatchItem {
	return e.EmbedBatchProfile(ctx, Profile{}, trees)
}

// EmbedBatchProfile embeds every tree under profile p and returns one
// BatchItem per input, in input order.  Cancelling ctx marks every
// not-yet-started item with ctx.Err(); items already on a worker
// complete normally.  The call always returns a fully populated slice
// and never leaks goroutines.
func (e *Engine) EmbedBatchProfile(ctx context.Context, p Profile, trees []*bintree.Tree) []BatchItem {
	if ctx == nil {
		ctx = context.Background()
	}
	items := make([]BatchItem, len(trees))
	var wg sync.WaitGroup
	deliver := func(it BatchItem) {
		items[it.Index] = it
		wg.Done()
	}
	i := 0
	var stopErr error
	for ; i < len(trees); i++ {
		wg.Add(1)
		err := e.send(ctx, job{ctx: ctx, tree: trees[i], prof: p, index: i, deliver: deliver})
		if err != nil {
			wg.Done()
			stopErr = err
			break
		}
	}
	// Items that were never enqueued are reported directly and do not
	// touch the engine counters (Completed stays ≤ Submitted).
	for ; i < len(trees); i++ {
		items[i] = BatchItem{Index: i, Tree: trees[i], Err: stopErr}
	}
	wg.Wait()
	return items
}

// Stats snapshots the engine counters.  Workers, Shards and CacheCap
// report the resolved configuration (after Config.normalize), so two
// engines built from equal configs report equal sizing.
func (e *Engine) Stats() Stats {
	s := Stats{
		Workers:    e.workers,
		Shards:     e.shards,
		CacheCap:   e.cacheCap,
		Hits:       e.hits.Load(),
		Misses:     e.misses.Load(),
		Coalesced:  e.coalesced.Load(),
		InFlight:   e.inFlight.Load(),
		Submitted:  e.submitted.Load(),
		Completed:  e.completed.Load(),
		Errors:     e.errCnt.Load(),
		EmbedNanos: e.embedNanos.Load(),

		WarmLoaded:  e.warmLoaded.Load(),
		WarmSkipped: e.warmSkipped.Load(),

		QueueWaitNanos: e.queueWaitNanos.Load(),
		BusyNanos:      e.busyNanos.Load(),
		UptimeNanos:    time.Since(e.started).Nanoseconds(),
	}
	if e.cache != nil {
		s.CacheLen = e.cache.len()
		s.Evictions = e.cache.evictions()
	}
	return s
}

// ShardStats snapshots every cache shard in index order: per-shard
// length, capacity and evictions.  It returns nil when caching is
// disabled.
func (e *Engine) ShardStats() []ShardStat {
	if e.cache == nil {
		return nil
	}
	return e.cache.stats()
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for jb := range e.jobs {
		start := time.Now()
		e.queueWaitNanos.Add(start.Sub(jb.queuedAt).Nanoseconds())
		// The job context crosses the submitter→worker goroutine
		// boundary carrying the request's trace span (if sampled), so
		// the queue wait and the phases below land in the right trace.
		trace.Record(jb.ctx, "engine.queue-wait", jb.queuedAt, start)
		e.inFlight.Add(1)
		item := e.process(jb)
		e.busyNanos.Add(time.Since(start).Nanoseconds())
		e.inFlight.Add(-1)
		e.completed.Add(1)
		if item.Err != nil {
			e.errCnt.Add(1)
		}
		jb.deliver(item)
	}
}

// embedXTree is the embed-compute entry point, a seam so tests can
// block the compute deterministically (thundering-herd test) without
// timing games.  Production code never changes it.
var embedXTree = core.EmbedXTreeContext

// process runs one job: context check, canonical encode, sharded cache
// lookup, then a coalesced wait or the flight's one compute and cache
// fill.  A panic in the job becomes its error: the worker goroutine is
// outside any handler's recovery, so it would otherwise end the process.
func (e *Engine) process(jb job) (item BatchItem) {
	// owed is the flight this job leads and has not finished yet.  A
	// panic finishes it with the job's error, or its waiters would hang.
	var owed *flight
	var key string
	defer func() {
		if r := recover(); r != nil {
			item = BatchItem{Index: jb.index, Tree: jb.tree,
				Err: fmt.Errorf("engine: panic in job %d: %v", jb.index, r)}
			if owed != nil {
				e.flights.finish(key, owed, nil, item.Err)
			}
		}
	}()
	item = BatchItem{Index: jb.index, Tree: jb.tree}
	select {
	case <-jb.ctx.Done():
		item.Err = jb.ctx.Err()
		return item
	default:
	}
	if jb.tree == nil {
		item.Err = fmt.Errorf("engine: nil tree at index %d", jb.index)
		return item
	}
	parent := trace.FromContext(jb.ctx)
	opts := jb.prof.options()
	// Both the cache and the coalescer key on the canonical code under
	// the job's options.
	encStart := time.Now()
	code, order := jb.tree.CanonicalCode()
	key = cacheKey(opts, code)
	hash := bintree.HashCode(key)
	parent.Record("engine.canonical-encode", encStart, time.Now(),
		trace.Int("n", int64(jb.tree.N())))
	if e.cache != nil {
		lookStart := time.Now()
		ent, ok := e.cache.get(hash, key)
		parent.Record("engine.cache-lookup", lookStart, time.Now(),
			trace.Int("hit", b2i(ok)))
		if ok {
			e.hits.Add(1)
			item.Result, item.Quality = remap(jb.tree, order, ent), ent.quality
			item.CacheHit = true
			return item
		}
	}
	fl, leader := e.flights.lead(key)
	if !leader {
		e.coalesced.Add(1)
		waitStart := time.Now()
		select {
		case <-fl.done:
		case <-jb.ctx.Done():
			item.Err = jb.ctx.Err()
			return item
		}
		parent.Record("engine.coalesce-wait", waitStart, time.Now())
		if fl.err != nil {
			item.Err = fl.err
			return item
		}
		item.Result, item.Quality = remap(jb.tree, order, fl.ent), fl.ent.quality
		item.Coalesced = true
		return item
	}
	// Leader: double-check the cache — an earlier flight may have
	// filled it between this job's lookup and winning leadership.
	owed = fl
	if e.cache != nil {
		if ent, ok := e.cache.get(hash, key); ok {
			owed = nil
			e.flights.finish(key, fl, ent, nil)
			e.hits.Add(1)
			item.Result, item.Quality = remap(jb.tree, order, ent), ent.quality
			item.CacheHit = true
			return item
		}
	}
	e.misses.Add(1)
	// The compute is owed to every waiter on the flight, so it runs
	// detached from the leader's own cancellation; the leader's trace
	// span still parents the embed phases (values survive the detach).
	res, ent, err := e.compute(context.WithoutCancel(jb.ctx), jb.tree, opts, key, hash, order)
	owed = nil
	e.flights.finish(key, fl, ent, err)
	if err != nil {
		item.Err = err
		return item
	}
	item.Result, item.Quality = res, ent.quality
	return item
}

// options returns the embedding options of profile p: the theorem
// defaults, with strict mode turned on by p.Strict and the host pinned
// by p.Height > 0.
func (p Profile) options() core.Options {
	opts := core.DefaultOptions()
	opts.Strict = p.Strict
	if p.Height > 0 {
		opts.Height = p.Height
	}
	return opts
}

// cacheKey returns the cache and coalescer key of a canonical code
// embedded under opts.  Under the zero Profile's options it is the bare
// code, so the default-profile path builds no string; any other options
// put a "strict/height|" prefix in front.  Canonical codes hold only
// '(', ')' and '.', so a prefixed key never equals a bare one and codeOf
// recovers the code from either.
func cacheKey(opts core.Options, code string) string {
	if opts == core.DefaultOptions() {
		return code
	}
	return strconv.FormatBool(opts.Strict) + "/" + strconv.Itoa(opts.Height) + "|" + code
}

// codeOf returns the canonical code inside a cache key.
func codeOf(key string) string { return key[strings.IndexByte(key, '|')+1:] }

// compute runs the embedder under opts and publishes the result's entry
// to the cache.  order is the guest's own canonical pre-order, which
// puts the entry in canonical form for later remapping.  The entry
// measures the result's Quality here, once for every item it answers.
func (e *Engine) compute(ctx context.Context, t *bintree.Tree, opts core.Options, key string, hash uint64, order []int32) (*core.Result, *cacheEntry, error) {
	parent := trace.FromContext(ctx)
	start := time.Now()
	csp := parent.Child("engine.embed-compute")
	res, err := embedXTree(trace.ContextWithSpan(ctx, csp), t, opts)
	csp.End()
	e.embedNanos.Add(time.Since(start).Nanoseconds())
	if err != nil {
		return nil, nil, err
	}
	ent := newCacheEntry(res, order, opts)
	if e.cache != nil {
		e.cache.put(hash, key, ent)
	}
	return res, ent, nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// remap transfers a cached embedding onto an isomorphic guest: position i
// of the newcomer's canonical order corresponds to position i of the
// cached guest's, so the newcomer's node order[i] inherits the host
// vertex of the cached node ent.order[i].  Isomorphism preserves
// adjacency, hence dilation, load and condition (3′) transfer verbatim,
// and so does the entry's measured Quality.
// The host and the Stats slices are shared with the cache entry and must
// be treated as read-only.
func remap(t *bintree.Tree, order []int32, ent *cacheEntry) *core.Result {
	assign := make([]bitstr.Addr, t.N())
	for i, v := range order {
		assign[v] = ent.assign[ent.order[i]]
	}
	return &core.Result{
		Guest:      t,
		Host:       ent.host,
		Assignment: assign,
		Stats:      ent.stats,
	}
}
