package engine

import (
	"context"
	"testing"

	"xtreesim/internal/bintree"
	"xtreesim/internal/core"
)

// TestEngineParallelIdentical checks Options.Parallel end to end: an
// engine fanning each embed over 4 goroutines must return the
// byte-identical assignment a serial engine computes, so the knob
// composes safely with the canonical cache.
func TestEngineParallelIdentical(t *testing.T) {
	tr := mustGen(t, bintree.FamilyRandom, 2000, 9)
	serial := New(Config{Workers: 1, CacheSize: -1})
	defer serial.Close()
	opts := core.DefaultOptions()
	opts.Parallel = 4
	par := New(Config{Workers: 1, CacheSize: -1, Options: &opts})
	defer par.Close()

	a := serial.EmbedBatch(context.Background(), []*bintree.Tree{tr})[0]
	b := par.EmbedBatch(context.Background(), []*bintree.Tree{tr})[0]
	if a.Err != nil || b.Err != nil {
		t.Fatalf("errs: %v / %v", a.Err, b.Err)
	}
	for v := range a.Result.Assignment {
		if a.Result.Assignment[v] != b.Result.Assignment[v] {
			t.Fatalf("node %d: serial engine %v, parallel engine %v",
				v, a.Result.Assignment[v], b.Result.Assignment[v])
		}
	}
}

// TestEngineParallelKeepsOptions: the engine embeds with the
// Options.Parallel it was configured with.
func TestEngineParallelKeepsOptions(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Parallel = 2
	e := New(Config{Workers: 1, Options: &opts})
	defer e.Close()
	if e.opts.Parallel != 2 {
		t.Errorf("engine opts.Parallel = %d, want the Options value 2", e.opts.Parallel)
	}
}
