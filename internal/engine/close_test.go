package engine

// close_test.go is the shutdown-safety regression suite: the serving
// layer closes its owned engine while HTTP handlers may still be inside
// EmbedBatch, so Close racing live callers must never panic, deadlock,
// or lose a result without an error, and it returns only once the
// accepted work is done.  These tests run under the CI race job
// alongside the rest of the engine suite.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"xtreesim/internal/bintree"
)

// TestCloseDuringConcurrentEmbedBatch races Close against in-flight
// EmbedBatch callers: each batch item must carry either a valid
// embedding or ErrClosed, never a silent zero value.
func TestCloseDuringConcurrentEmbedBatch(t *testing.T) {
	eng := New(Config{Workers: 2, CacheSize: 8})
	trees := []*bintree.Tree{
		mustGen(t, "random", 255, 1),
		mustGen(t, "random", 255, 2),
		mustGen(t, "random", 255, 3),
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				for _, it := range eng.EmbedBatch(context.Background(), trees) {
					if it.Err == nil && it.Result == nil {
						t.Error("batch item with neither result nor error")
					}
					if it.Err != nil && !errors.Is(it.Err, ErrClosed) {
						t.Errorf("batch item error %v, want ErrClosed", it.Err)
					}
				}
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	eng.Close()
	wg.Wait()
}

// TestSubmitAfterCloseReturnsErrClosed pins the post-Close contract the
// server relies on during graceful shutdown.
func TestSubmitAfterCloseReturnsErrClosed(t *testing.T) {
	eng := New(Config{Workers: 1})
	tr := mustGen(t, "random", 63, 1)
	eng.Close()
	for _, it := range eng.EmbedBatch(context.Background(), []*bintree.Tree{tr}) {
		if !errors.Is(it.Err, ErrClosed) {
			t.Errorf("EmbedBatch after Close: %v, want ErrClosed", it.Err)
		}
	}
	// Close must be idempotent.
	eng.Close()
}

// TestCloseWaitsForAcceptedJobs: Close blocks while an accepted job is
// held inside the embed seam, returns once that job has finished, and
// work submitted afterwards reports ErrClosed.
func TestCloseWaitsForAcceptedJobs(t *testing.T) {
	gate, _, restore := gateEmbeds(t, nil)
	defer restore()
	eng := New(Config{Workers: 1})
	tr := mustGen(t, "random", 63, 1)

	batch := make(chan []BatchItem)
	go func() { batch <- eng.EmbedBatch(context.Background(), []*bintree.Tree{tr}) }()
	waitCounter(t, 1, func() int64 { return eng.Stats().InFlight })

	closed := make(chan struct{})
	go func() {
		eng.Close()
		close(closed)
	}()
	// Once Close has refused new work, it must still wait on the job.
	waitCounter(t, 1, func() int64 {
		eng.mu.RLock()
		defer eng.mu.RUnlock()
		return b2i(eng.closed)
	})
	select {
	case <-closed:
		t.Fatal("Close returned while an accepted job was still embedding")
	case <-time.After(20 * time.Millisecond):
	}

	close(gate)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the held job finished")
	}
	if s := eng.Stats(); s.Completed != 1 || s.InFlight != 0 {
		t.Errorf("Close returned before the held job finished: %+v", s)
	}
	if it := (<-batch)[0]; it.Err != nil || it.Result == nil {
		t.Errorf("held job: err %v, result %v", it.Err, it.Result)
	}
	if it := eng.EmbedBatch(context.Background(), []*bintree.Tree{tr})[0]; !errors.Is(it.Err, ErrClosed) {
		t.Errorf("EmbedBatch after Close: %v, want ErrClosed", it.Err)
	}
}
