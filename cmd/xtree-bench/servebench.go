package main

// servebench.go is experiment E18: the serving-latency profile of the
// embedding service.  It boots the real server in-process on an
// ephemeral port, drives it with the closed-loop load generator at a
// sweep of concurrency levels, and reports what the clients measured —
// throughput, p50/p95/p99/max latency, shed counts and the engine's
// cache hit rate.  Besides the Markdown table for EXPERIMENTS.md it
// writes a BENCH_serve.json trajectory point so successive PRs can be
// compared number against number.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"xtreesim/internal/server"
)

var (
	serveBenchOut  = flag.String("serve-out", "BENCH_serve.json", "e18: write the serving benchmark JSON here ('' disables)")
	serveBenchSeed = flag.Int64("serve-seed", 0, "e18: master seed for the loadgen request streams (same seed, same requests)")
)

// serveBenchPoint is one row of the sweep, as recorded in BENCH_serve.json.
type serveBenchPoint struct {
	Concurrency   int     `json:"concurrency"`
	Requests      int     `json:"requests"`
	OK            int     `json:"ok"`
	Shed          int     `json:"shed"`
	Errors        int     `json:"errors"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50MS         float64 `json:"p50_ms"`
	P95MS         float64 `json:"p95_ms"`
	P99MS         float64 `json:"p99_ms"`
	MaxMS         float64 `json:"max_ms"`
	CacheHitPct   float64 `json:"cache_hit_pct"`
}

type serveBenchFile struct {
	Bench  string `json:"bench"`
	Config struct {
		TreeN          int    `json:"tree_n"`
		Family         string `json:"family"`
		DistinctShapes int    `json:"distinct_shapes"`
		RequestsPerLvl int    `json:"requests_per_level"`
		Seed           int64  `json:"seed"`
		EngineWorkers  int    `json:"engine_workers"`
		CacheShards    int    `json:"cache_shards"`
		Coalesce       bool   `json:"coalesce"`
		NumCPU         int    `json:"num_cpu"`
	} `json:"config"`
	Engine struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Coalesced int64 `json:"coalesced"`
		Evictions int64 `json:"evictions"`
	} `json:"engine"`
	Results []serveBenchPoint `json:"results"`
}

func e18Serving() {
	const (
		treeN  = 1008
		family = "random"
		shapes = 8
		perLvl = 400
	)
	levels := []int{1, 2, 4, 8, 16}

	s := server.New(server.Config{MaxConcurrent: 0, MaxQueue: -1})
	if err := s.Start(); err != nil {
		check(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	// Warm the engine cache with the full shape mix so every level sees
	// the same steady-state server, not a cold-start artifact.
	if _, err := server.RunLoad(server.LoadConfig{
		BaseURL: s.URL(), Concurrency: 2, Requests: 2 * shapes,
		TreeN: treeN, Family: family, DistinctShapes: shapes,
		Seed: *serveBenchSeed,
	}); err != nil {
		check(err)
	}

	header("E18 — serving latency under closed-loop load (POST /v1/embed, n=1008 random, 8 shapes)",
		"clients", "requests", "ok", "shed", "thpt req/s", "p50 ms", "p95 ms", "p99 ms", "max ms", "cache hit %")

	out := serveBenchFile{Bench: "serve"}
	out.Config.TreeN = treeN
	out.Config.Family = family
	out.Config.DistinctShapes = shapes
	out.Config.RequestsPerLvl = perLvl
	out.Config.Seed = *serveBenchSeed
	startStats := s.Stats()
	out.Config.EngineWorkers = startStats.Workers
	out.Config.CacheShards = startStats.Shards
	out.Config.Coalesce = true // the default engine coalesces
	out.Config.NumCPU = runtime.NumCPU()

	for _, c := range levels {
		rep, err := server.RunLoad(server.LoadConfig{
			BaseURL:        s.URL(),
			Concurrency:    c,
			Requests:       perLvl,
			TreeN:          treeN,
			Family:         family,
			DistinctShapes: shapes,
			Seed:           *serveBenchSeed,
		})
		check(err)
		hitPct := 0.0
		if rep.OK > 0 {
			hitPct = 100 * float64(rep.CacheHits) / float64(rep.OK)
		}
		ms := func(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000) }
		row(c, rep.Requests, rep.OK, rep.Shed, fmt.Sprintf("%.0f", rep.Throughput),
			ms(rep.P50), ms(rep.P95), ms(rep.P99), ms(rep.Max), fmt.Sprintf("%.0f", hitPct))
		out.Results = append(out.Results, serveBenchPoint{
			Concurrency:   c,
			Requests:      rep.Requests,
			OK:            rep.OK,
			Shed:          rep.Shed,
			Errors:        rep.Errors,
			ThroughputRPS: rep.Throughput,
			P50MS:         float64(rep.P50.Microseconds()) / 1000,
			P95MS:         float64(rep.P95.Microseconds()) / 1000,
			P99MS:         float64(rep.P99.Microseconds()) / 1000,
			MaxMS:         float64(rep.Max.Microseconds()) / 1000,
			CacheHitPct:   hitPct,
		})
	}

	st := s.Stats()
	fmt.Printf("\nengine after sweep: hits=%d misses=%d coalesced=%d evictions=%d hit_rate=%.2f workers=%d shards=%d utilization=%.2f avg_queue_wait=%s\n",
		st.Hits, st.Misses, st.Coalesced, st.Evictions, st.HitRate(), st.Workers, st.Shards,
		st.Utilization(), st.AvgQueueWait().Round(time.Microsecond))
	out.Engine.Hits = st.Hits
	out.Engine.Misses = st.Misses
	out.Engine.Coalesced = st.Coalesced
	out.Engine.Evictions = st.Evictions

	if *serveBenchOut != "" {
		raw, err := json.MarshalIndent(out, "", "  ")
		check(err)
		check(os.WriteFile(*serveBenchOut, append(raw, '\n'), 0o644))
		fmt.Printf("wrote %s\n", *serveBenchOut)
	}
}
