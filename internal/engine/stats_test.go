package engine

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"xtreesim/internal/bintree"
	"xtreesim/internal/trace"
)

// TestStatsGettersConsistent drives the engine while snapshotting Stats
// concurrently and asserts the counters stay consistent at every
// instant: every lookup is exactly a hit, a miss or a coalesced wait,
// the counters are monotone, and the derived queue depth never goes
// negative.
func TestStatsGettersConsistent(t *testing.T) {
	e := New(Config{Workers: 2, CacheSize: 64})
	defer e.Close()

	trees := make([]*bintree.Tree, 24)
	for i := range trees {
		// Three distinct shapes cycled: a repeat-heavy stream, so both
		// hit and miss paths run.
		tr, err := bintree.Generate(bintree.FamilyRandom, 64, rand.New(rand.NewSource(int64(i%3+1))))
		if err != nil {
			t.Fatal(err)
		}
		trees[i] = tr
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var prev Stats
	go func() {
		defer wg.Done()
		for {
			s := e.Stats()
			if s.Lookups() != s.Hits+s.Misses+s.Coalesced {
				t.Errorf("lookups %d != hits %d + misses %d + coalesced %d",
					s.Lookups(), s.Hits, s.Misses, s.Coalesced)
			}
			if s.QueueDepth() < 0 {
				t.Errorf("queue depth %d < 0", s.QueueDepth())
			}
			if s.Hits < prev.Hits || s.Misses < prev.Misses || s.Coalesced < prev.Coalesced ||
				s.Submitted < prev.Submitted || s.Completed < prev.Completed {
				t.Errorf("counters went backwards: %+v then %+v", prev, s)
			}
			prev = s
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	items := e.EmbedBatch(context.Background(), trees)
	close(stop)
	wg.Wait()

	for _, it := range items {
		if it.Err != nil {
			t.Fatalf("item %d: %v", it.Index, it.Err)
		}
	}
	s := e.Stats()
	if s.Lookups() != int64(len(trees)) {
		t.Fatalf("lookups %d, want %d (one per item)", s.Lookups(), len(trees))
	}
	if s.Hits == 0 || s.Misses == 0 {
		t.Fatalf("repeat-heavy stream should produce both hits and misses: hits=%d misses=%d",
			s.Hits, s.Misses)
	}
	if s.Misses != 3 {
		t.Fatalf("three distinct shapes should compute exactly 3 times, got %d", s.Misses)
	}
	if s.QueueDepth() != 0 || s.InFlight != 0 {
		t.Fatalf("drained engine reports queue depth %d, in-flight %d", s.QueueDepth(), s.InFlight)
	}
	if s.Submitted != s.Completed {
		t.Fatalf("submitted %d != completed %d after drain", s.Submitted, s.Completed)
	}
}

// TestEngineSpans asserts the per-item phase spans land in the
// submitter's trace: queue wait, canonical encode, cache lookup (with
// the hit marker on the repeat), embed compute, and the embedder's own
// separator spans below it.
func TestEngineSpans(t *testing.T) {
	tracer := trace.New(trace.Config{SampleRate: 1, RingSize: 1 << 14})
	ctx, root := tracer.Root(context.Background(), "batch")

	e := New(Config{Workers: 1, CacheSize: 16})
	defer e.Close()
	mk := func(seed int64) *bintree.Tree {
		tr, err := bintree.Generate(bintree.FamilyRandom, 150, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	// Identical shapes: with one worker the first is a miss, the second
	// a cache hit.
	items := e.EmbedBatch(ctx, []*bintree.Tree{mk(5), mk(5)})
	root.End()
	for _, it := range items {
		if it.Err != nil {
			t.Fatalf("item %d: %v", it.Index, it.Err)
		}
	}
	if !items[0].CacheHit && !items[1].CacheHit {
		t.Fatal("second identical tree should hit the cache")
	}

	counts := map[string]int{}
	hitMarks := 0
	sepWithDepth := 0
	for _, sd := range tracer.Spans() {
		counts[sd.Name]++
		if sd.Trace != root.TraceID() {
			t.Fatalf("span %q in trace %s, want %s", sd.Name, sd.Trace, root.TraceID())
		}
		if sd.Name == "engine.cache-lookup" {
			if v, ok := sd.Attrs.Get("hit"); ok && v == 1 {
				hitMarks++
			}
		}
		if sd.Name == "embed.separator" {
			if _, ok := sd.Attrs.Get("depth"); ok {
				sepWithDepth++
			}
		}
	}
	if counts["engine.queue-wait"] != 2 || counts["engine.canonical-encode"] != 2 ||
		counts["engine.cache-lookup"] != 2 {
		t.Fatalf("per-item span counts wrong: %v", counts)
	}
	if counts["engine.embed-compute"] != 1 {
		t.Fatalf("embed-compute spans %d, want 1 (the miss)", counts["engine.embed-compute"])
	}
	if hitMarks != 1 {
		t.Fatalf("cache-lookup spans with hit=1: %d, want 1", hitMarks)
	}
	if counts["embed.separator"] == 0 || sepWithDepth != counts["embed.separator"] {
		t.Fatalf("separator spans %d (with depth attr %d), want > 0 and all attributed",
			counts["embed.separator"], sepWithDepth)
	}
}
