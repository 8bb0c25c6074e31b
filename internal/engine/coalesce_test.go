package engine

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xtreesim/internal/bintree"
	"xtreesim/internal/core"
)

// gateEmbeds swaps the embed-compute seam for a version whose FIRST
// call blocks on the returned gate channel (close it to release) while
// counting every call.  The restore func must be deferred.  Blocking
// the leader deterministically parks the whole flight: the test can
// poll Stats().Coalesced until every waiter has registered, then
// release, with no timing assumptions anywhere.
func gateEmbeds(t *testing.T, wrapped func(context.Context, *bintree.Tree, core.Options) (*core.Result, error)) (gate chan struct{}, calls *atomic.Int64, restore func()) {
	t.Helper()
	gate = make(chan struct{})
	calls = &atomic.Int64{}
	orig := embedXTree
	embedXTree = func(ctx context.Context, tr *bintree.Tree, opts core.Options) (*core.Result, error) {
		if calls.Add(1) == 1 {
			<-gate
		}
		if wrapped != nil {
			return wrapped(ctx, tr, opts)
		}
		return orig(ctx, tr, opts)
	}
	return gate, calls, func() { embedXTree = orig }
}

// waitCounter polls get until it returns want or the deadline passes.
func waitCounter(t *testing.T, want int64, get func() int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for get() != want {
		if time.Now().After(deadline) {
			t.Fatalf("counter stuck at %d, want %d", get(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestThunderingHerd is the tentpole's acceptance test: N concurrent
// isomorphic trees perform exactly ONE embed compute; the other N-1
// jobs coalesce onto the leader's flight and answer by remapping.
func TestThunderingHerd(t *testing.T) {
	const n = 16
	gate, calls, restore := gateEmbeds(t, nil)
	defer restore()

	// One worker per job, so every job is on a worker at once: the
	// leader blocks in the gated compute and all n-1 others must take
	// the waiter path — no cache hits can sneak in.
	e := New(Config{Workers: n, CacheSize: 64})
	defer e.Close()

	base := mustGen(t, bintree.FamilyRandom, 256, 42)
	trees := make([]*bintree.Tree, n)
	trees[0] = base
	for i := 1; i < n; i++ {
		trees[i] = relabel(t, base, int64(i)) // isomorphic, distinct labelings
	}

	done := make(chan []BatchItem)
	go func() { done <- e.EmbedBatch(context.Background(), trees) }()

	// Every job but the leader has registered as a waiter.
	waitCounter(t, n-1, func() int64 { return e.Stats().Coalesced })
	close(gate)
	items := <-done

	coalesced, computed := 0, 0
	for _, it := range items {
		if it.Err != nil {
			t.Fatalf("item %d: %v", it.Index, it.Err)
		}
		if it.Result == nil || it.Result.Guest != trees[it.Index] {
			t.Fatalf("item %d: wrong or missing result", it.Index)
		}
		if q := measured(it.Result); it.Quality != q {
			t.Fatalf("item %d (coalesced %v) carries %+v, measured %+v", it.Index, it.Coalesced, it.Quality, q)
		}
		switch {
		case it.Coalesced:
			coalesced++
		case !it.CacheHit:
			computed++
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("embed compute ran %d times, want exactly 1", got)
	}
	if computed != 1 || coalesced != n-1 {
		t.Fatalf("computed=%d coalesced=%d, want 1 and %d", computed, coalesced, n-1)
	}
	s := e.Stats()
	if s.Misses != 1 || s.Coalesced != n-1 {
		t.Fatalf("stats misses=%d coalesced=%d, want 1 and %d", s.Misses, s.Coalesced, n-1)
	}

	// The herd filled the cache once: a later isomorphic batch is all hits.
	after := e.EmbedBatch(context.Background(), []*bintree.Tree{relabel(t, base, 99)})
	if after[0].Err != nil || !after[0].CacheHit {
		t.Fatalf("post-herd lookup: hit=%v err=%v, want cache hit", after[0].CacheHit, after[0].Err)
	}
	if q := measured(after[0].Result); after[0].Quality != q {
		t.Fatalf("post-herd hit carries %+v, measured %+v", after[0].Quality, q)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("post-herd lookup recomputed: %d calls", got)
	}
}

// TestCoalescedErrorPropagation: a failed leader compute fails every
// waiter on the flight with the same error, still with one compute.
func TestCoalescedErrorPropagation(t *testing.T) {
	const n = 8
	boom := errors.New("boom")
	gate, calls, restore := gateEmbeds(t, func(context.Context, *bintree.Tree, core.Options) (*core.Result, error) {
		return nil, boom
	})
	defer restore()

	e := New(Config{Workers: n, CacheSize: 64})
	defer e.Close()
	base := mustGen(t, bintree.FamilyRandom, 128, 7)
	trees := make([]*bintree.Tree, n)
	for i := range trees {
		trees[i] = relabel(t, base, int64(i+1))
	}
	done := make(chan []BatchItem)
	go func() { done <- e.EmbedBatch(context.Background(), trees) }()
	waitCounter(t, n-1, func() int64 { return e.Stats().Coalesced })
	close(gate)
	for _, it := range <-done {
		if !errors.Is(it.Err, boom) {
			t.Fatalf("item %d: err %v, want the leader's error", it.Index, it.Err)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("failed compute ran %d times, want 1", got)
	}
	if s := e.Stats(); s.Errors != n || s.CacheLen != 0 {
		t.Fatalf("stats errors=%d cachelen=%d, want %d and 0", s.Errors, s.CacheLen, n)
	}
}

// TestPanickingLeaderFailsItsFlight: a compute that panics fails its job
// instead of the process.  The leader finishes its flight with the
// panic's error, so the coalesced waiter gets the same error instead of
// hanging, and the engine goes on serving.
func TestPanickingLeaderFailsItsFlight(t *testing.T) {
	var panicked atomic.Bool
	gate, calls, restore := gateEmbeds(t, func(ctx context.Context, tr *bintree.Tree, opts core.Options) (*core.Result, error) {
		if panicked.CompareAndSwap(false, true) {
			panic("embedder bug")
		}
		return core.EmbedXTreeContext(ctx, tr, opts)
	})
	defer restore()

	e := New(Config{Workers: 2, CacheSize: 64})
	defer e.Close()
	base := mustGen(t, bintree.FamilyRandom, 128, 13)
	done := make(chan []BatchItem)
	go func() {
		done <- e.EmbedBatch(context.Background(), []*bintree.Tree{base, relabel(t, base, 1)})
	}()
	waitCounter(t, 1, func() int64 { return e.Stats().Coalesced })
	close(gate)
	items := <-done
	for _, it := range items {
		if it.Err == nil || !strings.Contains(it.Err.Error(), "embedder bug") {
			t.Fatalf("item %d: err %v, want the leader's panic", it.Index, it.Err)
		}
	}
	if items[0].Err.Error() != items[1].Err.Error() {
		t.Errorf("leader and waiter errors differ: %q, %q", items[0].Err, items[1].Err)
	}

	next := e.EmbedBatch(context.Background(), []*bintree.Tree{relabel(t, base, 2)})[0]
	if next.Err != nil || next.Result == nil {
		t.Fatalf("job after the panic: err %v", next.Err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("compute ran %d times, want 2 (the panic and the retry)", got)
	}
	s := e.Stats()
	if s.Completed != 3 || s.Errors != 2 || s.Lookups() != s.Completed || s.Misses != 2 || s.Coalesced != 1 {
		t.Fatalf("stats completed=%d errors=%d lookups=%d misses=%d coalesced=%d, want 3, 2, 3, 2, 1",
			s.Completed, s.Errors, s.Lookups(), s.Misses, s.Coalesced)
	}
}

// TestCoalesceWaiterCancellation: a waiter whose own context fires stops
// waiting with its ctx error; the flight itself survives and answers
// the rest.
func TestCoalesceWaiterCancellation(t *testing.T) {
	gate, _, restore := gateEmbeds(t, nil)
	defer restore()

	e := New(Config{Workers: 4, CacheSize: 64})
	defer e.Close()
	base := mustGen(t, bintree.FamilyRandom, 128, 11)

	leadDone := make(chan []BatchItem)
	go func() { leadDone <- e.EmbedBatch(context.Background(), []*bintree.Tree{base}) }()
	// The leader is on a worker once it parks in the gated compute.
	waitCounter(t, 1, func() int64 { return e.Stats().InFlight })

	ctx, cancel := context.WithCancel(context.Background())
	waitDone := make(chan []BatchItem)
	go func() { waitDone <- e.EmbedBatch(ctx, []*bintree.Tree{relabel(t, base, 3)}) }()
	waitCounter(t, 1, func() int64 { return e.Stats().Coalesced })

	cancel()
	cancelled := <-waitDone
	if !errors.Is(cancelled[0].Err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v, want context.Canceled", cancelled[0].Err)
	}

	close(gate)
	lead := <-leadDone
	if lead[0].Err != nil || lead[0].Result == nil {
		t.Fatalf("leader failed after waiter cancellation: %+v", lead[0])
	}
}

// TestCoalesceLeaderDetached: cancelling the request that happens to
// lead the flight must not poison the waiters — the compute runs
// detached and the waiter still gets a result.
func TestCoalesceLeaderDetached(t *testing.T) {
	gate, calls, restore := gateEmbeds(t, nil)
	defer restore()

	e := New(Config{Workers: 4, CacheSize: 64})
	defer e.Close()
	base := mustGen(t, bintree.FamilyRandom, 128, 13)

	leadCtx, cancelLead := context.WithCancel(context.Background())
	leadDone := make(chan []BatchItem)
	go func() { leadDone <- e.EmbedBatch(leadCtx, []*bintree.Tree{base}) }()
	waitCounter(t, 1, func() int64 { return e.Stats().InFlight })

	waitDone := make(chan []BatchItem)
	go func() { waitDone <- e.EmbedBatch(context.Background(), []*bintree.Tree{relabel(t, base, 5)}) }()
	waitCounter(t, 1, func() int64 { return e.Stats().Coalesced })

	cancelLead()
	close(gate)
	waited := <-waitDone
	if waited[0].Err != nil || waited[0].Result == nil || !waited[0].Coalesced {
		t.Fatalf("waiter poisoned by leader cancellation: %+v", waited[0])
	}
	<-leadDone
	if got := calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
}

// TestThunderingHerdStrictProfile proves coalescing applies to
// non-default option profiles: a herd of N isomorphic strict jobs on a
// default-configured engine costs exactly one strict embed.
func TestThunderingHerdStrictProfile(t *testing.T) {
	const n = 16
	var sawStrict atomic.Bool
	gate, calls, restore := gateEmbeds(t, func(ctx context.Context, tr *bintree.Tree, opts core.Options) (*core.Result, error) {
		if opts.Strict {
			sawStrict.Store(true)
		}
		return core.EmbedXTreeContext(ctx, tr, opts)
	})
	defer restore()

	e := New(Config{Workers: n, CacheSize: 64})
	defer e.Close()

	base := mustGen(t, bintree.FamilyRandom, 256, 43)
	trees := make([]*bintree.Tree, n)
	trees[0] = base
	for i := 1; i < n; i++ {
		trees[i] = relabel(t, base, int64(i))
	}

	done := make(chan []BatchItem)
	go func() { done <- e.EmbedBatchProfile(context.Background(), Profile{Strict: true}, trees) }()
	waitCounter(t, n-1, func() int64 { return e.Stats().Coalesced })
	close(gate)
	items := <-done

	for _, it := range items {
		if it.Err != nil {
			t.Fatalf("item %d: %v", it.Index, it.Err)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("strict herd ran %d computes, want exactly 1", got)
	}
	if !sawStrict.Load() {
		t.Fatal("the strict profile's compute did not carry Strict options")
	}
	s := e.Stats()
	if s.Misses != 1 || s.Coalesced != n-1 {
		t.Fatalf("stats misses=%d coalesced=%d, want 1 and %d", s.Misses, s.Coalesced, n-1)
	}
}
