package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xtreesim/internal/core"
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

// scrapeMetric returns the value of one unlabeled /metrics series.
func scrapeMetric(t *testing.T, h http.Handler, name string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("/metrics has no %s series", name)
	return ""
}

// TestStrictBatchSingleCompute is the acceptance criterion: a strict
// batch of 16 isomorphic trees performs exactly one compute — the other
// 15 are answered by the engine's cache or coalescer under the strict
// profile's key.  How the 15 split between cache hits and coalesced
// waits depends on how many workers race for the first tree, so only
// the sum is pinned.
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
	st := s.eng.Stats()
	if st.Misses != 1 {
		t.Errorf("engine ran %d computes for 16 isomorphic strict trees, want exactly 1", st.Misses)
	}
	if got := st.Hits + st.Coalesced; got != 15 {
		t.Errorf("engine hits+coalesced = %d, want 15", got)
	}
	if hits != st.Hits {
		t.Errorf("%d items carry cache_hit, the engine counted %d hits", hits, st.Hits)
	}
}

// TestProfilesShareOneCache: one shape requested as default, strict and
// height-pinned makes three cache entries in the one engine; a repeat
// under each profile hits its own entry; and every wire item equals the
// item the per-request computation (perRequestItem) builds from a direct
// embed with that profile's options, apart from cache_hit.
func TestProfilesShareOneCache(t *testing.T) {
	s, ts := newTestServer(t, Config{EngineConfig: engine.Config{CacheSize: 64}})
	spec := TreeSpec{Family: "random", N: 300, Seed: Seed(4)}
	tree, err := spec.resolve(DefaultMaxTreeNodes)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []EmbedRequest{
		{Tree: &spec},
		{Tree: &spec, Strict: true},
		{Tree: &spec, Height: 7},
		{Tree: &spec, Strict: true, Height: 7, Injective: true},
	}
	for round := 0; round < 2; round++ {
		for i, req := range reqs {
			resp, data := postJSON(t, ts.URL+"/v1/embed", req)
			if resp.StatusCode != 200 {
				t.Fatalf("%+v: status %d: %s", req, resp.StatusCode, data)
			}
			got := decodeEmbed(t, data).Items[0]
			if got.CacheHit != (round == 1) {
				t.Errorf("round %d request %d: cache_hit=%v", round, i, got.CacheHit)
			}
			opts := core.DefaultOptions()
			opts.Strict = req.Strict
			if req.Height > 0 {
				opts.Height = req.Height
			}
			res, err := core.EmbedXTreeContext(context.Background(), tree, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := perRequestItem(t, &req, engine.BatchItem{Tree: tree, Result: res})
			// Round-trip through JSON so both sides carry the wire's floats.
			raw, _ := json.Marshal(want)
			want = EmbedItem{}
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatal(err)
			}
			got.CacheHit = false
			if !reflect.DeepEqual(got, want) {
				t.Errorf("request %d round %d: wire item %+v, direct embed %+v", i, round, got, want)
			}
		}
		if st := s.eng.Stats(); st.CacheLen != len(reqs) || st.Misses != int64(len(reqs)) {
			t.Fatalf("round %d: cache_len=%d misses=%d, want one entry and one compute per profile",
				round, st.CacheLen, st.Misses)
		}
	}
}

// TestPoolSnapshotRoutesProfiles: the snapshot holds one section per
// profile, every section opens with the magic line and one profile
// line, and warming a fresh server routes each record back to its own
// profile.
func TestPoolSnapshotRoutesProfiles(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	reqs := []EmbedRequest{
		{Tree: &TreeSpec{Family: "random", N: 70, Seed: Seed(5)}},
		{Tree: &TreeSpec{Family: "random", N: 70, Seed: Seed(5)}, Strict: true},
		{Tree: &TreeSpec{Family: "random", N: 70, Seed: Seed(5)}, Height: 4},
	}
	for _, req := range reqs {
		if resp, data := postJSON(t, ts.URL+"/v1/embed", req); resp.StatusCode != 200 {
			t.Fatalf("%+v: status %d: %s", req, resp.StatusCode, data)
		}
	}
	var buf bytes.Buffer
	n, err := s.eng.Snapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("snapshot wrote %d records, want 3 (one per profile)", n)
	}
	if got := strings.Count(buf.String(), "xtreesim-cache v1\nprofile strict="); got != 3 {
		t.Fatalf("snapshot has %d sections, want 3 (one per profile)", got)
	}

	cold, cts := newTestServer(t, Config{})
	ws, err := cold.eng.Warm(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if ws.Loaded != 3 || ws.Skipped != 0 {
		t.Fatalf("warm loaded=%d skipped=%d, want 3 and 0", ws.Loaded, ws.Skipped)
	}
	for _, req := range reqs {
		resp, data := postJSON(t, cts.URL+"/v1/embed", req)
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		if it := decodeEmbed(t, data).Items[0]; !it.CacheHit {
			t.Errorf("first %+v request after warm was not a cache hit", req)
		}
	}
	if st := cold.eng.Stats(); st.Misses != 0 {
		t.Errorf("warmed server ran %d computes, want 0", st.Misses)
	}
}

// parentSnapshot was written by the server when each option profile
// still had an engine of its own: a default section with two records,
// then a height=2 and a strict section with one record each.
// parentSnapshotRequests are the requests that filled it.
const parentSnapshot = "testdata/parent-profiles.snap"

var parentSnapshotRequests = []EmbedRequest{
	{Tree: &TreeSpec{Family: "random", N: 24, Seed: Seed(1)}},
	{Tree: &TreeSpec{Family: "complete", N: 15}},
	{Tree: &TreeSpec{Family: "random", N: 24, Seed: Seed(2)}, Strict: true},
	{Tree: &TreeSpec{Family: "random", N: 24, Seed: Seed(3)}, Height: 2},
}

// TestWarmParentSnapshot: a snapshot written before the profiles shared
// one engine warms with every record loaded and none skipped, answers
// each of the requests that wrote it from the cache, and the snapshot
// the server writes back at drain opens every section with the magic
// line and one profile line.
func TestWarmParentSnapshot(t *testing.T) {
	raw, err := os.ReadFile(parentSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "cache.snap")
	if err := os.WriteFile(snap, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Config{SnapshotPath: snap, Logger: log.New(io.Discard, "", 0)})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	if st := s.eng.Stats(); st.WarmLoaded != 4 || st.WarmSkipped != 0 || st.CacheLen != 4 {
		t.Fatalf("warm loaded=%d skipped=%d cache_len=%d, want 4, 0 and 4", st.WarmLoaded, st.WarmSkipped, st.CacheLen)
	}
	for _, req := range parentSnapshotRequests {
		resp, data := postJSON(t, s.URL()+"/v1/embed", req)
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		if it := decodeEmbed(t, data).Items[0]; !it.CacheHit {
			t.Errorf("%+v missed the warmed cache", req)
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	text := string(written)
	magic, headed := strings.Count(text, "xtreesim-cache v1\n"), strings.Count(text, "xtreesim-cache v1\nprofile strict=")
	if !strings.HasPrefix(text, "xtreesim-cache v1\n") || magic != 3 || headed != 3 ||
		strings.Count(text, "\nprofile ") != 3 || strings.Count(text, "\nentry ") != 4 {
		t.Fatalf("written snapshot has %d sections, %d opening with a profile line; want 3 and 3, and 4 records:\n%s",
			magic, headed, text)
	}
	e := engine.New(engine.Config{Workers: 1})
	defer e.Close()
	if ws, err := e.Warm(bytes.NewReader(written)); err != nil || ws.Loaded != 4 || ws.Skipped != 0 {
		t.Fatalf("re-warm of the written snapshot: %+v, %v; want 4 loaded, 0 skipped", ws, err)
	}
}

// TestWarmSkippedMetricMatchesLog: every record the boot-time warm
// skips reaches xtreesim_engine_warm_skipped_total, including the
// records of a section that has no profile line.
func TestWarmSkippedMetricMatchesLog(t *testing.T) {
	raw, err := os.ReadFile(parentSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	// Append the default section again without its profile line: its two
	// records are of unknown options and must be skipped, and counted.
	text := string(raw)
	def := text[:strings.Index(text[1:], "xtreesim-cache v1")+1]
	def = strings.Replace(def, "profile strict=false height=-1\n", "", 1)
	snap := filepath.Join(t.TempDir(), "cache.snap")
	if err := os.WriteFile(snap, []byte(text+def), 0o644); err != nil {
		t.Fatal(err)
	}
	var logs bytes.Buffer
	s := New(Config{SnapshotPath: snap, Logger: log.New(&logs, "", 0)})
	defer s.eng.Close()
	if !strings.Contains(logs.String(), "loaded 4 records, skipped 2") {
		t.Errorf("warm log %q, want 4 loaded and 2 skipped", logs.String())
	}
	h := s.Handler()
	if got := scrapeMetric(t, h, "xtreesim_engine_warm_skipped_total"); got != "2" {
		t.Errorf("xtreesim_engine_warm_skipped_total = %s, want 2", got)
	}
	if got := scrapeMetric(t, h, "xtreesim_engine_warm_loaded_total"); got != "4" {
		t.Errorf("xtreesim_engine_warm_loaded_total = %s, want 4", got)
	}
}

// embedLoad is the restart test's closed loop: 4 clients share 300
// POST /v1/embed requests over 8 random shapes of 600 nodes (seeds 42 to
// 49).  It counts the answers by status (0 for a transport or decode
// failure) and the 200s served from cache, and returns the p99 latency.
func embedLoad(url string) (status map[int]int, hits int, p99 time.Duration) {
	const clients, requests, shapes = 4, 300, 8
	bodies := make([][]byte, shapes)
	for i := range bodies {
		bodies[i], _ = json.Marshal(EmbedRequest{Tree: &TreeSpec{Family: "random", N: 600, Seed: Seed(42 + int64(i))}})
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()
	status = make(map[int]int)
	lat := make([]time.Duration, 0, requests)
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < requests; i = next.Add(1) - 1 {
				t0 := time.Now()
				code, hit := 0, false
				if resp, err := client.Post(url+"/v1/embed", "application/json", bytes.NewReader(bodies[i%shapes])); err == nil {
					var er EmbedResponse
					if json.NewDecoder(resp.Body).Decode(&er) == nil {
						code = resp.StatusCode
					}
					hit = code == 200 && len(er.Items) == 1 && er.Items[0].CacheHit
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				mu.Lock()
				lat = append(lat, time.Since(t0))
				status[code]++
				if hit {
					hits++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	slices.Sort(lat)
	return status, hits, lat[len(lat)*99/100]
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
	phase := func(s *Server) (ok, hits int) {
		t.Helper()
		status, hits, p99 := embedLoad(s.URL())
		if status[200] != 300 || p99 > 5*time.Second {
			t.Fatalf("SLOs are 0 errors, 0 shed and p99 <= 5s: answers by status %v, p99 %v", status, p99)
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
		return status[200], hits
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
	st1 := s1.eng.Stats()
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
	if st := s2.eng.Stats(); st.WarmLoaded != int64(st1.CacheLen) {
		t.Fatalf("restarted server warm_loaded = %d, want %d", st.WarmLoaded, st1.CacheLen)
	}
	ok, hits := phase(s2)
	if st := s2.eng.Stats(); st.Misses != 0 {
		t.Errorf("warmed server ran %d computes, want 0", st.Misses)
	}
	if hits != ok {
		t.Errorf("warmed server answered %d of %d OKs from cache", hits, ok)
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
	if st := s.eng.Stats(); st.WarmLoaded != 0 {
		t.Errorf("corrupt snapshot loaded %d records", st.WarmLoaded)
	}
}
