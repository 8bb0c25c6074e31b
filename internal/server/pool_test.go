package server

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xtreesim/internal/engine"
)

// pathSpecs builds n path-tree specs of the same size — all isomorphic,
// so a sound cache answers every one after the first.
func pathSpecs(n, size int) []TreeSpec {
	specs := make([]TreeSpec, n)
	for i := range specs {
		specs[i] = TreeSpec{Family: "path", N: size, Seed: Seed(int64(i))}
	}
	return specs
}

// TestProfileEnginesPinToTemplate: lazily created profile engines must
// inherit the operator's template — worker count and all — not drift
// back to package defaults.  A template with a distinctive worker count
// must show that count on every profile engine.
func TestProfileEnginesPinToTemplate(t *testing.T) {
	s, ts := newTestServer(t, Config{EngineConfig: engine.Config{Workers: 3, CacheSize: 320}})
	resp, data := postJSON(t, ts.URL+"/v1/embed", EmbedRequest{
		Tree: &TreeSpec{Family: "path", N: 60, Seed: Seed(1)}, Strict: true,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	for _, ps := range s.ProfileStats() {
		if ps.Stats.Workers != 3 {
			t.Errorf("profile %q workers = %d, want 3 (template drift)", ps.Profile, ps.Stats.Workers)
		}
	}
}

// TestSecondaryProfileCapacityBudget: profile engines must not multiply
// the configured cache memory.  The default engine keeps the full
// configured capacity; each secondary gets a budgeted slice and evicts
// within it.
func TestSecondaryProfileCapacityBudget(t *testing.T) {
	// CacheSize 32, MaxProfiles 2 → each secondary gets 32/2/2 = 8.
	s, ts := newTestServer(t, Config{
		EngineConfig: engine.Config{Workers: 1, CacheSize: 32},
		MaxProfiles:  2,
	})
	// 12 distinct-shape random trees through the strict profile: more
	// shapes than the secondary's slice holds, so it must evict.
	for i := 0; i < 12; i++ {
		resp, data := postJSON(t, ts.URL+"/v1/embed", EmbedRequest{
			Tree: &TreeSpec{Family: "random", N: 80, Seed: Seed(int64(100 + i))}, Strict: true,
		})
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
	}
	profiles := s.ProfileStats()
	if profiles[0].Stats.CacheCap != 32 {
		t.Errorf("default profile capacity = %d, want the full 32", profiles[0].Stats.CacheCap)
	}
	if len(profiles) != 2 || profiles[1].Profile != "strict" {
		t.Fatalf("profiles = %+v, want default + strict", profiles)
	}
	st := profiles[1].Stats
	if st.CacheCap != 8 {
		t.Errorf("strict profile capacity = %d, want the budgeted 8", st.CacheCap)
	}
	if st.CacheLen > 8 {
		t.Errorf("strict profile holds %d entries over its capacity 8", st.CacheLen)
	}
	if st.Evictions == 0 {
		t.Error("12 distinct shapes through a capacity-8 cache evicted nothing")
	}
}

// TestStrictBatchSingleCompute is the acceptance criterion: a strict
// batch of 16 isomorphic trees performs exactly one compute — the other
// 15 are answered by the strict profile's cache or coalescer, where the
// old code recomputed all 16.  How the 15 split between cache hits and
// coalesced waits depends on how many workers race for the first tree,
// so only the sum is pinned.
func TestStrictBatchSingleCompute(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/embed", EmbedRequest{
		Trees: pathSpecs(16, 90), Strict: true,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	er := decodeEmbed(t, data)
	hits := int64(0)
	for _, it := range er.Items {
		if it.Error != "" {
			t.Fatalf("item %d errored: %s", it.Index, it.Error)
		}
		if it.CacheHit {
			hits++
		}
	}
	var strict *ProfileStat
	for _, ps := range s.ProfileStats() {
		if ps.Profile == "strict" {
			ps := ps
			strict = &ps
		}
	}
	if strict == nil {
		t.Fatal("no strict profile engine materialized")
	}
	if strict.Stats.Misses != 1 {
		t.Errorf("strict profile ran %d computes for 16 isomorphic trees, want exactly 1", strict.Stats.Misses)
	}
	if got := strict.Stats.Hits + strict.Stats.Coalesced; got != 15 {
		t.Errorf("strict profile hits+coalesced = %d, want 15", got)
	}
	if hits != strict.Stats.Hits {
		t.Errorf("%d items carry cache_hit, the strict profile counted %d hits", hits, strict.Stats.Hits)
	}
}

// TestProfileOverflowFallsBack: more distinct profiles than the pool
// budget still serve correctly — uncached — and are counted.
func TestProfileOverflowFallsBack(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxProfiles: 1})
	for _, h := range []int{6, 7} {
		resp, data := postJSON(t, ts.URL+"/v1/embed", EmbedRequest{
			Tree: &TreeSpec{Family: "path", N: 50, Seed: Seed(1)}, Height: h,
		})
		if resp.StatusCode != 200 {
			t.Fatalf("height=%d status %d: %s", h, resp.StatusCode, data)
		}
		if it := decodeEmbed(t, data).Items[0]; it.Height != h {
			t.Errorf("height=%d item %+v", h, it)
		}
	}
	if n := s.pool.overflow.Load(); n != 1 {
		t.Errorf("overflow counter = %d, want 1 (second profile past the cap)", n)
	}
	if len(s.ProfileStats()) != 2 { // default + height=6
		t.Errorf("profiles = %+v, want exactly default + height=6", s.ProfileStats())
	}
}

// TestPoolSnapshotRoutesProfiles: a pool snapshot holds one section per
// profile engine, and warming a fresh pool routes each section back to
// the engine with the matching options.
func TestPoolSnapshotRoutesProfiles(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, strict := range []bool{false, true} {
		resp, data := postJSON(t, ts.URL+"/v1/embed", EmbedRequest{
			Tree: &TreeSpec{Family: "random", N: 70, Seed: Seed(5)}, Strict: strict,
		})
		if resp.StatusCode != 200 {
			t.Fatalf("strict=%t status %d: %s", strict, resp.StatusCode, data)
		}
	}
	var buf bytes.Buffer
	n, err := s.pool.snapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("pool snapshot wrote %d records, want 2 (one per profile)", n)
	}
	if got := strings.Count(buf.String(), snapshotMagicLine); got != 2 {
		t.Fatalf("pool snapshot has %d sections, want 2", got)
	}

	cold, cts := newTestServer(t, Config{})
	defer cts.Close()
	ws, err := cold.pool.warm(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if ws.Loaded != 2 || ws.Skipped != 0 {
		t.Fatalf("pool warm loaded=%d skipped=%d, want 2 and 0", ws.Loaded, ws.Skipped)
	}
	profiles := cold.ProfileStats()
	if len(profiles) != 2 {
		t.Fatalf("warm materialized %d profiles, want 2: %+v", len(profiles), profiles)
	}
	for _, ps := range profiles {
		if ps.Stats.CacheLen != 1 {
			t.Errorf("profile %q cache_len = %d after warm, want 1", ps.Profile, ps.Stats.CacheLen)
		}
	}
	// The strict record must answer a strict request, not a default one.
	resp, data := postJSON(t, cts.URL+"/v1/embed", EmbedRequest{
		Tree: &TreeSpec{Family: "random", N: 70, Seed: Seed(5)}, Strict: true,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if it := decodeEmbed(t, data).Items[0]; !it.CacheHit {
		t.Error("first strict request after pool warm was not a cache hit")
	}
}

// TestServerSnapshotRestartWarmHit is the end-to-end restart path under
// load: closed-loop embeds plus fault-injected simulations, a drain
// that snapshots the caches, a restart that warms from the snapshot,
// and the same traffic again.  Both phases must hold the serving SLOs,
// and the warmed server must answer everything from cache.
func TestServerSnapshotRestartWarmHit(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "cache.snap")
	// Each closed-loop client holds at most two admission places (a slot
	// its last answer has not yet released, and its next request), so
	// four clients never overflow 4 slots plus a queue of 16.
	cfg := Config{SnapshotPath: snap, MaxConcurrent: 4, MaxQueue: 16}
	phase := func(s *Server) *LoadReport {
		t.Helper()
		rep, err := RunLoad(LoadConfig{BaseURL: s.URL(), Concurrency: 4, Requests: 300,
			TreeN: 600, DistinctShapes: 8, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errors != 0 || rep.Shed != 0 || rep.P99 > 5*time.Second {
			t.Fatalf("SLOs are 0 errors, 0 shed and p99 <= 5s: %s", rep)
		}
		// Simulations over a lossy network must still complete and deliver.
		for seed := int64(1); seed <= 4; seed++ {
			resp, data := postJSON(t, s.URL()+"/v1/simulate", SimulateRequest{
				Tree:     &TreeSpec{Family: "random", N: 600, Seed: Seed(seed)},
				Workload: WorkloadBroadcast,
				Faults:   &FaultSpec{Seed: seed, DropProb: 0.2, CorruptProb: 0.05, MaxRetries: 16, BackoffBase: 1},
			})
			var sr SimulateResponse
			if resp.StatusCode != 200 || json.Unmarshal(data, &sr) != nil || sr.Sim.Delivered == 0 {
				t.Fatalf("fault-injected simulate %d: status %d: %s", seed, resp.StatusCode, data)
			}
		}
		return rep
	}
	start := func() *Server {
		s := New(cfg)
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Shutdown(context.Background()) })
		return s
	}

	s1 := start()
	phase(s1)
	st1 := s1.Stats()
	if st1.Misses == 0 {
		t.Fatal("phase 1 ran no computes; the load never reached the engine")
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("shutdown left no snapshot: %v", err)
	}

	s2 := start()
	if st := s2.Stats(); st.WarmLoaded != int64(st1.CacheLen) {
		t.Fatalf("restarted server warm_loaded = %d, want %d", st.WarmLoaded, st1.CacheLen)
	}
	rep := phase(s2)
	if st := s2.Stats(); st.Misses != 0 {
		t.Errorf("warmed server ran %d computes, want 0", st.Misses)
	}
	if rep.CacheHits != rep.OK {
		t.Errorf("warmed server answered %d of %d OKs from cache", rep.CacheHits, rep.OK)
	}
}

// TestSnapshotPathCorruptFileColdStart: a corrupt snapshot file must
// degrade to a cold boot, never a failed one.
func TestSnapshotPathCorruptFileColdStart(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "cache.snap")
	if err := os.WriteFile(snap, []byte("definitely not a snapshot\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{SnapshotPath: snap})
	resp, data := postJSON(t, ts.URL+"/v1/embed", EmbedRequest{
		Tree: &TreeSpec{Family: "path", N: 40, Seed: Seed(1)},
	})
	if resp.StatusCode != 200 {
		t.Fatalf("server with corrupt snapshot failed to serve: %d %s", resp.StatusCode, data)
	}
	if st := s.Stats(); st.WarmLoaded != 0 {
		t.Errorf("corrupt snapshot loaded %d records", st.WarmLoaded)
	}
}
