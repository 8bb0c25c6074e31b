package core

import (
	"sync"
	"testing"

	"xtreesim/internal/bintree"
	"xtreesim/internal/bitstr"
	"xtreesim/internal/xtree"
)

// TestFinalPassFallbacks pins the fallback placement branch of the final
// pass: with the leveling cut ablated on a path guest the residual
// imbalance exceeds what the N-neighborhoods can absorb, so the final
// pass must take its outside-every-N-set fallback (counted, with the
// matching condition-(3′) violations) while still placing every node
// within the load bound.
func TestFinalPassFallbacks(t *testing.T) {
	tr := bintree.Path(int(Capacity(7)))
	res, err := EmbedXTree(tr, Options{Height: -1, DisableLeveling: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FinalFallbacks == 0 {
		t.Fatal("leveling ablation on a path guest no longer exercises the final-pass fallback")
	}
	if res.Stats.Cond3Violations == 0 {
		t.Error("fallback placements must be counted as condition (3') violations")
	}
	if len(res.Assignment) != tr.N() {
		t.Fatalf("fallback run placed %d of %d nodes", len(res.Assignment), tr.N())
	}
	if res.MaxLoad() > LoadTarget {
		t.Errorf("fallback placement overflowed a vertex: max load %d", res.MaxLoad())
	}
}

// TestParallelStrictErrorSurfaces checks strict mode's error path when
// embeddings run side by side, as the engine's workers run them: each of
// several concurrent embeds of the leveling ablation must surface its
// violation, and the very error a lone run reports, so no embedding
// shares state with another.
func TestParallelStrictErrorSurfaces(t *testing.T) {
	tr := bintree.Path(int(Capacity(7)))
	opts := Options{Height: -1, DisableLeveling: true, Strict: true}
	_, serialErr := EmbedXTree(tr, opts)
	if serialErr == nil {
		t.Fatal("strict mode swallowed the leveling ablation's violations")
	}
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = EmbedXTree(tr, opts)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("concurrent strict embed %d swallowed the violation the lone run caught", i)
		}
		if err.Error() != serialErr.Error() {
			t.Errorf("concurrent embed %d surfaced a different violation:\nlone:       %v\nconcurrent: %v", i, serialErr, err)
		}
	}
}

// TestAttachIdxDrained is the regression test for the attachment index:
// a finished embed must leave no component — dead or alive — in any
// vertex's list, and the incremental attachLoad mirror must be fully
// drained with it.  The second half seeds the corruptions the checker
// must report: a dead listed comp, a stale load sum and a broken link.
func TestAttachIdxDrained(t *testing.T) {
	tr := mustRandomTree(t, int(Capacity(6)), 1)
	x := xtree.New(6)
	e := newEmbedder(tr, x, 6, DefaultOptions())
	if err := e.run(); err != nil {
		t.Fatal(err)
	}
	for id := range e.attachHead {
		if e.attachHead[id] != nil || e.attachTail[id] != nil {
			t.Fatalf("vertex id %d still lists components after the embed", id)
		}
		if e.attachLoad[id] != 0 {
			t.Fatalf("attachLoad[%d] = %d after the embed", id, e.attachLoad[id])
		}
	}
	if err := e.checkAttachIdx(true); err != nil {
		t.Fatal(err)
	}

	// Seeded corruption 1: a dead component left in the index.
	dead := &comp{rank: 999, size: 4, attach: bitstr.Root()} // vertex id 0
	e.registerComp(dead)
	if err := e.checkAttachIdx(false); err == nil {
		t.Error("checker missed a dead component in the index")
	}

	// Seeded corruption 2: a live component whose load is not mirrored.
	dead.alive = true
	e.attachLoad[0] = 1
	if err := e.checkAttachIdx(false); err == nil {
		t.Error("checker missed an attachLoad mismatch")
	}
	e.attachLoad[0] = 4
	if err := e.checkAttachIdx(false); err != nil {
		t.Fatalf("checker rejected a consistent index: %v", err)
	}

	// Seeded corruption 3: a second comp whose back link skips the first.
	other := &comp{rank: 1000, size: 2, attach: bitstr.Root(), alive: true}
	e.registerComp(other)
	other.prev = nil
	if err := e.checkAttachIdx(false); err == nil {
		t.Error("checker missed a broken back link")
	}
	other.prev = dead
	e.detach(other)
	e.detach(dead)
	if err := e.checkAttachIdx(true); err != nil {
		t.Fatal(err)
	}
}
