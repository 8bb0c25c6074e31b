package engine

// shard.go is the sharded canonical-tree cache.  A single
// mutex-guarded LRU is correct, but every lookup — even a 100%-hit-rate
// stream of already-cached shapes — serializes on that mutex, which
// caps serving throughput under concurrent load.
//
// The cache is now striped across a power-of-two number of independent
// shards selected by the top bits of bintree.HashCode of the cache key:
// the canonical code, behind a profile prefix for non-default options
// (cacheKey in engine.go).  Isomorphic trees under one profile share a
// key, hence a hash, hence a shard — they still collapse to one cached
// embedding — while unrelated shapes land on different shards and stop
// contending on one lock.  Within a shard, keys are the full keys, so a
// hash collision can never surface a wrong embedding.
//
// The hit path is lock-light: a get takes only the shard's read lock for
// the map lookup and publishes recency by storing a globally increasing
// logical-clock stamp into the entry with one atomic store — no list
// splicing, no write lock, so hits on the same shard proceed in
// parallel.  Exact LRU order is preserved: stamps are strictly
// increasing per access, and eviction (which already holds the shard's
// write lock, on the rare fill path) removes the minimum-stamp entry.
// The scan is O(shard capacity), but shard capacities are small
// (CacheSize/shards) and the scan runs only on inserts into a full
// shard, never on hits.

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"xtreesim/internal/bitstr"
	"xtreesim/internal/core"
	"xtreesim/internal/xtree"
)

// cacheEntry memoizes one embedding: the host vertex of each node of the
// guest it was computed for and that guest's canonical pre-order, which
// together transfer the assignment onto any isomorphic newcomer (see
// remap in engine.go), the host, the construction's stats, the measured
// Quality every answer reports (the same for every isomorphic copy), and
// the strict mode and height it was embedded with, which Snapshot writes
// as the record's profile.  The guest itself is not kept: the cache key
// encodes its shape.
type cacheEntry struct {
	host    *xtree.XTree
	assign  []bitstr.Addr // host vertex of guest node v
	order   []int32       // the guest's canonical pre-order
	stats   core.Stats
	quality core.Quality
	strict  bool
	height  int
}

// newCacheEntry records res, whose guest has canonical pre-order order,
// and measures its Quality.
func newCacheEntry(res *core.Result, order []int32, opts core.Options) *cacheEntry {
	dil, avg := res.Embedding().DilationStats()
	q := core.Quality{Dilation: dil, AvgDilation: avg, MaxLoad: res.MaxLoad()}
	return &cacheEntry{host: res.Host, assign: res.Assignment, order: order, stats: res.Stats,
		quality: q, strict: opts.Strict, height: opts.Height}
}

// ShardStat is a point-in-time snapshot of one cache shard, surfaced by
// Engine.ShardStats for the /metrics per-shard gauges.
type ShardStat struct {
	Len       int   // embeddings currently cached in this shard
	Cap       int   // shard capacity (the Σ over shards is CacheSize)
	Evictions int64 // entries evicted to stay within Cap
}

// shardedLRU stripes an exact-LRU map across power-of-two shards.
type shardedLRU struct {
	clock  atomic.Int64 // global logical access clock; larger = more recent
	shift  uint         // 64 - log2(len(shards))
	shards []*lruShard
}

type lruShard struct {
	evictions atomic.Int64

	mu  sync.RWMutex
	cap int
	m   map[string]*shardEntry
}

type shardEntry struct {
	stamp atomic.Int64 // last-access logical time
	ent   *cacheEntry  // guarded by the shard lock (read under RLock)
}

// newShardedLRU builds a cache of total capacity spread over nshards
// shards.  nshards must be a power of two in [1, capacity]
// (Config.normalize guarantees this); the remainder capacity%nshards is
// distributed one entry each to the first shards so ΣCap == capacity
// exactly — the memory bound the configuration promises.
func newShardedLRU(capacity, nshards int) *shardedLRU {
	c := &shardedLRU{
		shift:  uint(64 - bits.TrailingZeros(uint(nshards))),
		shards: make([]*lruShard, nshards),
	}
	base, extra := capacity/nshards, capacity%nshards
	for i := range c.shards {
		capI := base
		if i < extra {
			capI++
		}
		c.shards[i] = &lruShard{cap: capI, m: make(map[string]*shardEntry, capI)}
	}
	return c
}

// shardIndex selects a shard from the hash's top bits.  The low bits
// of FNV-1a are poorly mixed: its multiply keeps bit 0, and ')' is the
// only odd byte in a canonical code, so bit 0 is the guest's size
// parity.  One shard's shift is 64, which Go defines to give 0.
func (c *shardedLRU) shardIndex(hash uint64) int { return int(hash >> c.shift) }

func (c *shardedLRU) shard(hash uint64) *lruShard { return c.shards[c.shardIndex(hash)] }

// get returns the entry for key, refreshing its recency.  hash must be
// bintree.HashCode(key).
func (c *shardedLRU) get(hash uint64, key string) (*cacheEntry, bool) {
	s := c.shard(hash)
	s.mu.RLock()
	se, ok := s.m[key]
	var ent *cacheEntry
	if ok {
		ent = se.ent
	}
	s.mu.RUnlock()
	if !ok {
		return nil, false
	}
	// The stamp store races only with other atomic stamp accesses; a
	// stamp written to a just-evicted entry is harmless.
	se.stamp.Store(c.clock.Add(1))
	return ent, true
}

// put inserts or refreshes key, evicting the shard's least recently used
// entry beyond the shard capacity.
func (c *shardedLRU) put(hash uint64, key string, ent *cacheEntry) {
	s := c.shard(hash)
	stamp := c.clock.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	if se, ok := s.m[key]; ok {
		se.ent = ent
		se.stamp.Store(stamp)
		return
	}
	if s.cap <= 0 {
		return
	}
	if len(s.m) >= s.cap {
		var victimKey string
		var victim *shardEntry
		for k, se := range s.m {
			if victim == nil || se.stamp.Load() < victim.stamp.Load() {
				victim, victimKey = se, k
			}
		}
		delete(s.m, victimKey)
		s.evictions.Add(1)
	}
	se := &shardEntry{ent: ent}
	se.stamp.Store(stamp)
	s.m[key] = se
}

// snapEntry pairs a cache key with its entry and last-access stamp for
// snapshotting.
type snapEntry struct {
	key   string
	ent   *cacheEntry
	stamp int64
}

// snapshotEntries copies every cached entry, least recently used first,
// so replaying the sequence through put reproduces the recency order.
// Each shard is copied under its read lock; the cache stays serviceable.
func (c *shardedLRU) snapshotEntries() []snapEntry {
	var out []snapEntry
	for _, s := range c.shards {
		s.mu.RLock()
		for k, se := range s.m {
			out = append(out, snapEntry{key: k, ent: se.ent, stamp: se.stamp.Load()})
		}
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].stamp < out[j].stamp })
	return out
}

// len returns the number of cached embeddings across all shards.
func (c *shardedLRU) len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// evictions returns the total entries evicted across all shards.
func (c *shardedLRU) evictions() int64 {
	var n int64
	for _, s := range c.shards {
		n += s.evictions.Load()
	}
	return n
}

// stats snapshots every shard in index order.
func (c *shardedLRU) stats() []ShardStat {
	out := make([]ShardStat, len(c.shards))
	for i, s := range c.shards {
		s.mu.RLock()
		n := len(s.m)
		s.mu.RUnlock()
		out[i] = ShardStat{Len: n, Cap: s.cap, Evictions: s.evictions.Load()}
	}
	return out
}
