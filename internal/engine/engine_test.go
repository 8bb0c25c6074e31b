package engine

import (
	"context"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"xtreesim/internal/bintree"
	"xtreesim/internal/core"
)

func mustGen(t testing.TB, f bintree.Family, n int, seed int64) *bintree.Tree {
	t.Helper()
	tr, err := bintree.Generate(f, n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// relabel returns an isomorphic copy of tr with permuted node numbers and
// flipped child sides.
func relabel(t testing.TB, tr *bintree.Tree, seed int64) *bintree.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := tr.N()
	perm := make([]int32, n)
	for i, v := range rng.Perm(n) {
		perm[i] = int32(v)
	}
	parent := make([]int32, n)
	side := make([]byte, n)
	for v := int32(0); v < int32(n); v++ {
		p := tr.Parent(v)
		if p == bintree.None {
			parent[perm[v]] = bintree.None
			continue
		}
		parent[perm[v]] = perm[p]
		if tr.Right(p) != v { // mirror: left becomes right
			side[perm[v]] = 1
		}
	}
	out, err := bintree.NewFromParents(parent, side)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestBatchMatchesSerial(t *testing.T) {
	// With the cache off every distinct shape still goes through the
	// coalescer: each is one counted miss, and nothing is cached, so
	// lookups = hits + misses + coalesced holds here too.
	e := New(Config{Workers: 4, CacheSize: -1})
	defer e.Close()
	var trees []*bintree.Tree
	for seed := int64(0); seed < 6; seed++ {
		trees = append(trees, mustGen(t, bintree.FamilyRandom, 480, seed))
	}
	items := e.EmbedBatch(context.Background(), trees)
	for i, it := range items {
		if it.Err != nil {
			t.Fatalf("item %d: %v", i, it.Err)
		}
		if it.Index != i || it.Tree != trees[i] || it.Result.Guest != trees[i] {
			t.Fatalf("item %d misrouted", i)
		}
		want, err := core.EmbedXTree(trees[i], core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for v := range want.Assignment {
			if want.Assignment[v] != it.Result.Assignment[v] {
				t.Fatalf("item %d: node %d assigned %v, serial gives %v",
					i, v, it.Result.Assignment[v], want.Assignment[v])
			}
		}
	}
	s := e.Stats()
	if s.Submitted != 6 || s.Completed != 6 || s.Errors != 0 || s.InFlight != 0 {
		t.Errorf("stats %+v", s)
	}
	if s.Hits != 0 || s.Misses != 6 || s.Coalesced != 0 || s.CacheLen != 0 {
		t.Errorf("disabled cache: want 6 misses and nothing cached, got %+v", s)
	}
	if s.EmbedNanos <= 0 {
		t.Error("no embed time recorded")
	}
}

func TestCacheHitRemapsIsomorphic(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	base := mustGen(t, bintree.FamilyRandom, 1008, 42)
	first := e.EmbedBatch(context.Background(), []*bintree.Tree{base})
	if first[0].Err != nil {
		t.Fatal(first[0].Err)
	}
	if first[0].CacheHit {
		t.Fatal("first embedding reported as a hit")
	}
	iso := relabel(t, base, 7)
	second := e.EmbedBatch(context.Background(), []*bintree.Tree{iso})
	it := second[0]
	if it.Err != nil {
		t.Fatal(it.Err)
	}
	if !it.CacheHit {
		t.Fatal("isomorphic tree missed the cache")
	}
	if it.Result.Guest != iso {
		t.Error("remapped result does not carry the new guest")
	}
	if err := core.CheckInvariants(it.Result); err != nil {
		t.Errorf("remapped assignment breaks invariants: %v", err)
	}
	if d := it.Result.Dilation(); d > 3 {
		t.Errorf("remapped dilation %d > 3", d)
	}
	s := e.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.CacheLen != 1 {
		t.Errorf("stats %+v", s)
	}
	if s.HitRate() != 0.5 {
		t.Errorf("hit rate %v", s.HitRate())
	}
}

func TestCacheSecondPassHitRate(t *testing.T) {
	if testing.Short() {
		t.Skip("embeds 2×16 trees")
	}
	e := New(Config{})
	defer e.Close()
	const batch = 16
	trees := make([]*bintree.Tree, batch)
	for i := range trees {
		trees[i] = mustGen(t, bintree.FamilyRandom, 1008, int64(i))
	}
	for _, it := range e.EmbedBatch(context.Background(), trees) {
		if it.Err != nil {
			t.Fatal(it.Err)
		}
	}
	iso := make([]*bintree.Tree, batch)
	for i := range iso {
		iso[i] = relabel(t, trees[i], int64(100+i))
	}
	for _, it := range e.EmbedBatch(context.Background(), iso) {
		if it.Err != nil {
			t.Fatal(it.Err)
		}
		if !it.CacheHit {
			t.Error("isomorphic pass missed the cache")
		}
	}
	s := e.Stats()
	if rate := float64(s.Hits) / float64(batch); rate < 0.9 {
		t.Errorf("second-pass hit rate %.2f < 0.9", rate)
	}
}

func TestLRUEviction(t *testing.T) {
	// One shard: eviction order is global LRU.  Shard-local eviction is
	// covered by TestShardedLRUEvictionOrder in shard_test.go.
	e := New(Config{Workers: 1, CacheSize: 2, CacheShards: 1})
	defer e.Close()
	ctx := context.Background()
	// Three pairwise non-isomorphic shapes (a zigzag is just a relabeled
	// path, so it would merge with one — see TestCanonicalAgreesOnIsomorphic).
	a := bintree.CompleteN(31)
	b := bintree.Path(31)
	c := bintree.Caterpillar(31)
	e.EmbedBatch(ctx, []*bintree.Tree{a, b, c}) // c evicts a
	if s := e.Stats(); s.CacheLen != 2 {
		t.Fatalf("cache len %d", s.CacheLen)
	}
	items := e.EmbedBatch(ctx, []*bintree.Tree{bintree.CompleteN(31)})
	if items[0].CacheHit {
		t.Error("evicted entry still answered")
	}
	items = e.EmbedBatch(ctx, []*bintree.Tree{bintree.Caterpillar(31)})
	if !items[0].CacheHit {
		t.Error("resident entry missed")
	}
}

// TestDerivedTheorems: Theorems 2 and 3 derived from remapped items
// keep their bounds, and the isomorphic pair costs one compute.
func TestDerivedTheorems(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	tr := mustGen(t, bintree.FamilyCaterpillar, 496, 3)
	items := e.EmbedBatch(context.Background(), []*bintree.Tree{tr, relabel(t, tr, 9)})
	computed := 0
	for i, it := range items {
		if it.Err != nil {
			t.Fatal(it.Err)
		}
		inj, err := core.EmbedInjective(it.Result)
		if err != nil {
			t.Fatalf("item %d: Theorem 2: %v", i, err)
		}
		if !inj.Embedding().IsInjective() {
			t.Errorf("item %d: Theorem 2 result not injective", i)
		}
		if d := core.EmbedHypercube(it.Result).Embedding().Dilation(); d > 4 {
			t.Errorf("item %d: hypercube dilation %d > 4", i, d)
		}
		if !it.CacheHit && !it.Coalesced {
			computed++
		}
	}
	// With several workers either tree may compute first, and the other
	// is a cache hit or a coalesced wait depending on timing: pin only
	// that the isomorphic pair cost exactly one compute.
	s := e.Stats()
	if computed != 1 || s.Misses != 1 || s.Hits+s.Coalesced != 1 {
		t.Errorf("isomorphic derivation did not reuse the first compute: %d items computed, stats %+v", computed, s)
	}
}

func TestCancellationMidBatch(t *testing.T) {
	before := runtime.NumGoroutine()
	// Cancel from inside the first compute rather than on a timer, which
	// a fast machine loses to the whole batch: the single worker finishes
	// the item it holds, and every later item must report ctx.Err().
	ctx, cancel := context.WithCancel(context.Background())
	orig := embedXTree
	var calls atomic.Int64
	embedXTree = func(ctx context.Context, tr *bintree.Tree, opts core.Options) (*core.Result, error) {
		if calls.Add(1) == 1 {
			cancel()
		}
		return orig(ctx, tr, opts)
	}
	defer func() { embedXTree = orig }()
	e := New(Config{Workers: 1, CacheSize: -1})
	const batch = 24
	trees := make([]*bintree.Tree, batch)
	for i := range trees {
		trees[i] = mustGen(t, bintree.FamilyRandom, 1008, int64(i))
	}
	items := e.EmbedBatch(ctx, trees)
	cancelled := 0
	for i, it := range items {
		switch {
		case it.Err == nil:
			if it.Result == nil {
				t.Fatalf("item %d: no result and no error", i)
			}
		case it.Err == context.Canceled:
			cancelled++
		default:
			t.Fatalf("item %d: unexpected error %v", i, it.Err)
		}
	}
	if items[0].Err != nil || cancelled != batch-1 {
		t.Errorf("first item err %v, %d of the %d later items cancelled", items[0].Err, cancelled, batch-1)
	}
	e.Close()
	// Close returns after the workers finish; they must be gone.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutine leak: %d before, %d after", before, g)
	}
}

// TestZeroConfigComputesInParallel: a zero-Config engine runs one embed
// compute per CPU at once.  Each compute waits in the seam until all of
// them have started, so an engine that serializes computes fails at the
// deadline whatever the machine's speed.
func TestZeroConfigComputesInParallel(t *testing.T) {
	n := runtime.GOMAXPROCS(0)
	deadline, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	all := make(chan struct{})
	var started atomic.Int64
	orig := embedXTree
	embedXTree = func(ctx context.Context, tr *bintree.Tree, opts core.Options) (*core.Result, error) {
		if started.Add(1) == int64(n) {
			close(all)
		}
		select {
		case <-all:
		case <-deadline.Done():
		}
		return orig(ctx, tr, opts)
	}
	defer func() { embedXTree = orig }()
	e := New(Config{})
	defer e.Close()

	trees := make([]*bintree.Tree, n)
	for i := range trees {
		// Distinct sizes are never isomorphic, so no job coalesces.
		trees[i] = mustGen(t, bintree.FamilyRandom, 64+i, int64(i))
	}
	for _, it := range e.EmbedBatch(context.Background(), trees) {
		if it.Err != nil {
			t.Fatalf("item %d: %v", it.Index, it.Err)
		}
	}
	if deadline.Err() != nil {
		t.Fatalf("%d computes never ran at once on %d workers", n, e.Stats().Workers)
	}
}

func TestPreCancelledContext(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items := e.EmbedBatch(ctx, []*bintree.Tree{bintree.CompleteN(15), bintree.Path(15)})
	for i, it := range items {
		if it.Err != context.Canceled {
			t.Errorf("item %d: err = %v, want context.Canceled", i, it.Err)
		}
	}
}

func TestEmbedBatchAfterClose(t *testing.T) {
	e := New(Config{})
	e.Close()
	items := e.EmbedBatch(context.Background(), []*bintree.Tree{bintree.Path(7)})
	if items[0].Err != ErrClosed {
		t.Errorf("err = %v, want ErrClosed", items[0].Err)
	}
}

func TestEmbedErrorReported(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	// X(1) holds at most 48 nodes: pinning height 1 must fail for 100.
	items := e.EmbedBatchProfile(context.Background(), Profile{Height: 1}, []*bintree.Tree{bintree.Path(100), nil})
	if items[0].Err == nil {
		t.Error("overfull host accepted")
	}
	if items[1].Err == nil {
		t.Error("nil tree accepted")
	}
	if s := e.Stats(); s.Errors != 2 {
		t.Errorf("errors = %d, want 2", s.Errors)
	}
}

func TestStatsObservabilityCounters(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	trees := make([]*bintree.Tree, 8)
	for i := range trees {
		trees[i] = mustGen(t, bintree.FamilyRandom, 63, int64(i+1))
	}
	items := e.EmbedBatch(context.Background(), trees)
	for _, it := range items {
		if it.Err != nil {
			t.Fatal(it.Err)
		}
	}
	s := e.Stats()
	if s.BusyNanos <= 0 {
		t.Errorf("BusyNanos = %d after %d embeddings", s.BusyNanos, len(trees))
	}
	if s.QueueWaitNanos < 0 {
		t.Errorf("negative QueueWaitNanos %d", s.QueueWaitNanos)
	}
	if s.UptimeNanos <= 0 {
		t.Errorf("UptimeNanos = %d", s.UptimeNanos)
	}
	if u := s.Utilization(); u < 0 || u > 1 {
		t.Errorf("Utilization() = %v outside [0,1]", u)
	}
	if s.AvgQueueWait() < 0 {
		t.Errorf("AvgQueueWait() = %v", s.AvgQueueWait())
	}
	// Busy time includes every embedding, so it can't be below the
	// measured embed time minus snapshot skew.
	if s.BusyNanos < s.EmbedNanos {
		t.Errorf("BusyNanos %d < EmbedNanos %d", s.BusyNanos, s.EmbedNanos)
	}
}

func TestStatsUtilizationZeroValues(t *testing.T) {
	var s Stats
	if s.Utilization() != 0 || s.AvgQueueWait() != 0 {
		t.Errorf("zero Stats: Utilization %v, AvgQueueWait %v", s.Utilization(), s.AvgQueueWait())
	}
}
