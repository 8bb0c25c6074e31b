package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"xtreesim/internal/bintree"
)

// keysForShard generates n distinct keys that all land in the given
// shard of c, through the same HashCode and shardIndex the engine uses.
func keysForShard(t *testing.T, c *shardedLRU, shard, n int) []string {
	t.Helper()
	var out []string
	for i := 0; len(out) < n; i++ {
		if i > 1_000_000 {
			t.Fatalf("could not find %d keys for shard %d", n, shard)
		}
		k := fmt.Sprintf("key-%d", i)
		if c.shardIndex(bintree.HashCode(k)) == shard {
			out = append(out, k)
		}
	}
	return out
}

func TestShardCapacitySumsToCacheSize(t *testing.T) {
	// The memory bound is exact even when the capacity does not divide
	// evenly: the remainder spreads one entry each over the first shards.
	for _, tc := range []struct{ size, shards int }{
		{8, 4}, {10, 4}, {1024, 16}, {7, 2}, {5, 4}, {1, 1},
	} {
		c := newShardedLRU(tc.size, tc.shards)
		sum := 0
		for _, st := range c.stats() {
			sum += st.Cap
		}
		if sum != tc.size {
			t.Errorf("size=%d shards=%d: ΣCap = %d, want %d", tc.size, tc.shards, sum, tc.size)
		}
	}
}

// TestShardedLRUEvictionOrder proves eviction is exact LRU within a
// shard and never touches other shards.
func TestShardedLRUEvictionOrder(t *testing.T) {
	c := newShardedLRU(8, 4) // per-shard capacity 2
	const shard = 1
	ks := keysForShard(t, c, shard, 3)
	ent := func(i int32) *cacheEntry { return &cacheEntry{order: []int32{i}} }

	h := func(k string) uint64 { return bintree.HashCode(k) }
	c.put(h(ks[0]), ks[0], ent(0))
	c.put(h(ks[1]), ks[1], ent(1)) // shard full
	if _, ok := c.get(h(ks[0]), ks[0]); !ok {
		t.Fatal("resident key missing")
	}
	// ks[0] was just refreshed, so ks[1] is now the shard's LRU entry.
	c.put(h(ks[2]), ks[2], ent(2))
	if _, ok := c.get(h(ks[1]), ks[1]); ok {
		t.Error("LRU entry survived an over-capacity insert")
	}
	got, ok := c.get(h(ks[0]), ks[0])
	if !ok || got.order[0] != 0 {
		t.Errorf("refreshed entry evicted or corrupted: %v %v", got, ok)
	}
	if _, ok := c.get(h(ks[2]), ks[2]); !ok {
		t.Error("newest entry missing")
	}

	st := c.stats()
	if st[shard].Evictions != 1 || st[shard].Len != 2 {
		t.Errorf("shard %d: %+v, want 1 eviction and len 2", shard, st[shard])
	}
	for i, s := range st {
		if i != shard && (s.Len != 0 || s.Evictions != 0) {
			t.Errorf("shard %d touched by another shard's eviction: %+v", i, s)
		}
	}
	if c.len() != 2 {
		t.Errorf("total len %d, want 2", c.len())
	}
}

// TestShardedLRUPutRefresh proves re-putting an existing key replaces
// its entry and refreshes its recency instead of growing the shard.
func TestShardedLRUPutRefresh(t *testing.T) {
	c := newShardedLRU(2, 1)
	ent := func(i int32) *cacheEntry { return &cacheEntry{order: []int32{i}} }
	h := bintree.HashCode
	c.put(h("a"), "a", ent(1))
	c.put(h("b"), "b", ent(2))
	c.put(h("a"), "a", ent(3)) // refresh: b becomes LRU
	c.put(h("c"), "c", ent(4)) // evicts b
	if _, ok := c.get(h("b"), "b"); ok {
		t.Error("stale entry survived")
	}
	got, ok := c.get(h("a"), "a")
	if !ok || got.order[0] != 3 {
		t.Errorf("refreshed put lost the new entry: %v %v", got, ok)
	}
}

// TestShardedLRURace hammers every shard operation concurrently; run
// under -race (the CI race job does) it proves the lock-light hit path
// is sound.  Capacity is tiny relative to the key space so evictions
// race with gets and puts constantly.
func TestShardedLRURace(t *testing.T) {
	c := newShardedLRU(16, 4)
	keys := make([]string, 96)
	hashes := make([]uint64, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("tree-code-%d", i)
		hashes[i] = bintree.HashCode(keys[i])
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 3000; i++ {
				k := rng.Intn(len(keys))
				switch {
				case i%64 == 0:
					c.len()
					c.stats()
				case rng.Intn(2) == 0:
					c.get(hashes[k], keys[k])
				default:
					c.put(hashes[k], keys[k], &cacheEntry{order: []int32{int32(k)}})
				}
			}
		}(w)
	}
	wg.Wait()

	if n := c.len(); n > 16 {
		t.Errorf("cache over capacity after race: len %d > 16", n)
	}
	for i, st := range c.stats() {
		if st.Len > st.Cap {
			t.Errorf("shard %d over capacity: %+v", i, st)
		}
	}
	// Every surviving entry must still be readable and self-consistent.
	for i, k := range keys {
		if ent, ok := c.get(hashes[i], k); ok && ent.order[0] != int32(i) {
			t.Errorf("key %q answered with entry %d", k, ent.order[0])
		}
	}
}

// TestEngineConcurrentAcrossShards drives a live engine from many
// goroutines with an eviction-heavy shape mix: concurrent Get/Add/evict
// across shards with the race detector on (CI race job) while the
// results stay correct.
func TestEngineConcurrentAcrossShards(t *testing.T) {
	e := New(Config{Workers: 4, CacheSize: 4, CacheShards: 2})
	defer e.Close()
	shapes := make([]*bintree.Tree, 10) // 10 shapes > 4 cache slots: constant eviction
	for i := range shapes {
		shapes[i] = mustGen(t, bintree.FamilyRandom, 48, int64(i+1))
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 6; i++ {
				batch := make([]*bintree.Tree, 4)
				for j := range batch {
					batch[j] = shapes[rng.Intn(len(shapes))]
				}
				for _, it := range e.EmbedBatch(nil, batch) {
					if it.Err != nil {
						t.Errorf("worker %d: %v", w, it.Err)
					} else if it.Result.Guest.N() != 48 {
						t.Errorf("worker %d: wrong guest answered", w)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	s := e.Stats()
	if s.CacheLen > 4 {
		t.Errorf("cache len %d > capacity 4", s.CacheLen)
	}
	if s.Evictions == 0 {
		t.Error("eviction-heavy mix recorded no evictions")
	}
	if got := s.Hits + s.Misses + s.Coalesced; got != s.Completed {
		t.Errorf("lookups %d != completed %d", got, s.Completed)
	}
}

// TestShardsReachedByOneParity: trees of one size parity spread over
// every shard.  With the shard taken from the hash's low bits, bit 0 is
// the parity of n, and shapes of one parity reach only half the shards.
func TestShardsReachedByOneParity(t *testing.T) {
	const shapes, shards = 64, 8
	for _, n := range []int{256, 257} {
		e := New(Config{Workers: 2, CacheSize: shapes * shards, CacheShards: shards})
		seen := map[string]bool{}
		var trees []*bintree.Tree
		for seed := int64(1); len(trees) < shapes; seed++ {
			tr := mustGen(t, bintree.FamilyRandom, n, seed)
			if code, _ := tr.CanonicalCode(); !seen[code] {
				seen[code] = true
				trees = append(trees, tr)
			}
		}
		for _, it := range e.EmbedBatch(context.Background(), trees) {
			if it.Err != nil {
				t.Fatalf("n=%d item %d: %v", n, it.Index, it.Err)
			}
		}
		for i, st := range e.ShardStats() {
			if st.Len == 0 {
				t.Errorf("n=%d: %d distinct shapes left shard %d of %d empty", n, shapes, i, shards)
			}
		}
		if s := e.Stats(); s.CacheLen != shapes || s.Evictions != 0 {
			t.Errorf("n=%d: cached %d of %d shapes with %d evictions", n, s.CacheLen, shapes, s.Evictions)
		}
		e.Close()
	}
}

func TestConfigNormalize(t *testing.T) {
	ncpu := runtime.GOMAXPROCS(0)
	isPow2 := func(n int) bool { return n > 0 && n&(n-1) == 0 }

	def := Config{}.normalize()
	if def.Workers != ncpu {
		t.Errorf("zero Workers resolved to %d, want GOMAXPROCS %d", def.Workers, ncpu)
	}
	if def.CacheSize != DefaultCacheSize {
		t.Errorf("zero CacheSize resolved to %d", def.CacheSize)
	}
	if !isPow2(def.CacheShards) || def.CacheShards > MaxCacheShards || def.CacheShards > def.CacheSize {
		t.Errorf("default CacheShards %d not a clamped power of two", def.CacheShards)
	}

	for _, tc := range []struct {
		name string
		in   Config
		want Config
	}{
		{"round up to pow2", Config{CacheShards: 5, CacheSize: 64},
			Config{CacheShards: 8, CacheSize: 64}},
		{"clamp to cache size", Config{CacheShards: 100, CacheSize: 8},
			Config{CacheShards: 8, CacheSize: 8}},
		{"clamp below odd cache size", Config{CacheShards: 4, CacheSize: 3},
			Config{CacheShards: 2, CacheSize: 3}},
		{"hard shard cap", Config{CacheShards: 1 << 20, CacheSize: 1 << 20},
			Config{CacheShards: MaxCacheShards, CacheSize: 1 << 20}},
		{"disabled cache clears shards", Config{CacheSize: -5, CacheShards: 8},
			Config{CacheShards: 0, CacheSize: -1}},
		{"explicit values kept", Config{Workers: 3, CacheSize: 16, CacheShards: 4},
			Config{Workers: 3, CacheSize: 16, CacheShards: 4}},
	} {
		got := tc.in.normalize()
		if got.CacheShards != tc.want.CacheShards || got.CacheSize != tc.want.CacheSize {
			t.Errorf("%s: got shards=%d size=%d, want shards=%d size=%d",
				tc.name, got.CacheShards, got.CacheSize, tc.want.CacheShards, tc.want.CacheSize)
		}
		if tc.want.Workers != 0 && got.Workers != tc.want.Workers {
			t.Errorf("%s: workers %d, want %d", tc.name, got.Workers, tc.want.Workers)
		}
	}

	// normalize is idempotent: resolving a resolved config changes nothing.
	if again := def.normalize(); again != def {
		t.Errorf("normalize not idempotent: %+v then %+v", def, again)
	}
}
