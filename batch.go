package xtreesim

// batch.go surfaces the concurrent batch-embedding engine
// (internal/engine): a bounded worker pool over algorithm X-TREE fronted
// by a sharded canonical-tree LRU cache with request coalescing, so
// isomorphic guests — which dominate real workloads — pay for one
// embedding and receive remapped assignments on every later hit, even
// when they arrive simultaneously.

import (
	"context"
	"sync"

	"xtreesim/internal/engine"
)

type (
	// Engine is a concurrent batch embedder with a sharded
	// canonical-tree cache.  Create one with NewEngine and release it
	// with Close.
	Engine = engine.Engine
	// EngineConfig configures NewEngine; the zero value means one
	// worker per CPU and a default-sized cache striped over several
	// lock shards.  Concurrent isomorphic requests always share one
	// embedding.  See the Workers, CacheSize and CacheShards fields;
	// embedding options travel per batch as an EngineProfile.
	EngineConfig = engine.Config
	// EngineProfile names the embedding options one batch may vary:
	// Strict turns strict mode on, and Height > 0 pins the host to
	// X(Height).  The zero value embeds with the theorem defaults, as
	// Embed does without options.  Pass it to Engine.EmbedBatchProfile.
	EngineProfile = engine.Profile
	// EngineStats is a snapshot of the engine counters (cache hits,
	// misses, coalesced waits, evictions, in-flight jobs, cumulative
	// embed nanoseconds).
	EngineStats = engine.Stats
	// BatchItem is the per-tree outcome of EmbedBatch.
	BatchItem = engine.BatchItem
	// ShardStat is one cache shard's occupancy and counters, from
	// Engine.ShardStats.
	ShardStat = engine.ShardStat
)

// MaxCacheShards is the upper bound EngineConfig.CacheShards is clamped
// to.
const MaxCacheShards = engine.MaxCacheShards

// ErrEngineClosed is returned for work submitted after Engine.Close.
var ErrEngineClosed = engine.ErrClosed

// NewEngine starts a batch-embedding engine:
//
//	eng := xtreesim.NewEngine(xtreesim.EngineConfig{Workers: 8, CacheSize: 4096})
//	defer eng.Close()
//	items := eng.EmbedBatch(ctx, trees)
//
// For strict or height-pinned embeddings, pass an EngineProfile to
// eng.EmbedBatchProfile instead; every profile shares the one cache under
// keys of its own.  Theorems 2 and 3 derive from each item's Result with
// EmbedInjective and EmbedHypercube.
func NewEngine(cfg EngineConfig) *Engine { return engine.New(cfg) }

var (
	defaultEngineOnce sync.Once
	defaultEngine     *Engine
)

// DefaultEngine returns the lazily started process-wide engine used by
// the package-level EmbedBatch: one worker per CPU, default cache.  Its
// cache and counters persist for the life of the process.
func DefaultEngine() *Engine {
	defaultEngineOnce.Do(func() { defaultEngine = engine.New(engine.Config{}) })
	return defaultEngine
}

// EmbedBatch embeds every tree concurrently on the DefaultEngine and
// returns one BatchItem per input, in input order.  Cancelling ctx marks
// every not-yet-started item with ctx.Err(); items already being
// embedded complete normally.
func EmbedBatch(ctx context.Context, trees []*Tree) []BatchItem {
	return DefaultEngine().EmbedBatch(ctx, trees)
}

// CanonicalHash returns the AHU-style isomorphism code hash the engine's
// cache keys on: equal for trees that differ only by node numbering and
// child order.
func CanonicalHash(t *Tree) uint64 { return t.CanonicalHash() }
