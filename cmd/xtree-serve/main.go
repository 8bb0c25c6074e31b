// Command xtree-serve runs the embedding service: a long-running HTTP
// process over the shared batch engine with admission control, load
// shedding, per-request deadlines and Prometheus metrics.
//
// Usage:
//
//	xtree-serve -addr :8080                 # serve until SIGINT/SIGTERM
//	xtree-serve -pprof -trace-sample 0.1    # serve with observability on
//	xtree-serve -loadgen -url http://host:8080 -c 16 -n 2000
//	xtree-serve -smoke                      # self-check: boot, drive, verify, exit
//	xtree-serve -trace-smoke                # tracing self-check: one traced request, validated export
//	xtree-serve -scale-smoke                # concurrency self-check: loadgen at c=1 vs c=8
//	xtree-serve -soak-smoke                 # soak/chaos self-check: load, faults, snapshot restart, warm
//	xtree-serve -dist-smoke                 # partitioned-simulation self-check: sharded vs single-process
//	xtree-serve -stream-smoke               # streaming-telemetry self-check: stream=1 session, heartbeat, metrics
//	xtree-serve -cache-snapshot cache.snap  # serve with cache persistence across restarts
//	xtree-serve -version
//
// Serving flags tune the production knobs: -workers, -cache,
// -cache-shards and -coalesce size the engine, -max-concurrent and
// -queue bound admission, -timeout is the per-request deadline,
// -max-body/-max-batch/-max-tree cap inputs.
// Observability: -trace-sample samples that fraction of requests into
// /debug/trace (clients sending X-Trace-Id are always traced), -pprof
// exposes /debug/pprof/.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"xtreesim/internal/buildinfo"
	"xtreesim/internal/engine"
	"xtreesim/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", 0, "engine workers (0 = one per CPU)")
		cache       = flag.Int("cache", 0, "engine cache entries (0 = default, negative = disabled)")
		cacheShards = flag.Int("cache-shards", 0, "cache lock shards (0 = auto: ~4x workers, rounded to a power of two)")
		coalesce    = flag.Bool("coalesce", true, "coalesce concurrent requests for isomorphic trees into one embedding")
		parallel    = flag.Int("parallel", 0, "goroutines per embed for the ADJUST/SPLIT fan-out (0 = serial; results are identical for every value)")

		maxConcurrent = flag.Int("max-concurrent", 0, "API requests processed at once (0 = one per CPU)")
		maxQueue      = flag.Int("queue", -1, "admission wait-queue length (-1 = 4x max-concurrent, 0 = shed when busy)")
		timeout       = flag.Duration("timeout", server.DefaultRequestTimeout, "per-request deadline")
		maxBody       = flag.Int64("max-body", server.DefaultMaxBodyBytes, "max request body bytes")
		maxBatch      = flag.Int("max-batch", server.DefaultMaxBatch, "max trees per embed request")
		maxTree       = flag.Int("max-tree", server.DefaultMaxTreeNodes, "max nodes per guest tree")
		quiet         = flag.Bool("quiet", false, "disable per-request access logging")

		traceSample = flag.Float64("trace-sample", 0, "fraction of requests traced into /debug/trace (0 = off, 1 = all)")
		enablePprof = flag.Bool("pprof", false, "expose /debug/pprof/ profile endpoints")

		loadgen    = flag.Bool("loadgen", false, "run the load generator instead of serving")
		url        = flag.String("url", "", "loadgen: target base URL (default: boot an in-process server)")
		conc       = flag.Int("c", 8, "loadgen: concurrent workers")
		requests   = flag.Int("n", 500, "loadgen: total requests")
		treeN      = flag.Int("tree-n", 1008, "loadgen: guest tree size")
		shapes     = flag.Int("shapes", 8, "loadgen: distinct tree shapes in the mix")
		tagTraces  = flag.Bool("trace", false, "loadgen: tag every request with its own X-Trace-Id")
		genSeed    = flag.Int64("seed", 0, "loadgen: master seed for the request streams (same seed, same requests)")
		genHost    = flag.String("host", "", "loadgen: embed host type in the mix (xtree, hypercube, universal; '' = xtree)")
		streamFrac = flag.Float64("stream-frac", 0, "loadgen: fraction of workers running drained stream=1 simulate sessions instead of embeds")

		cacheSnapshot = flag.String("cache-snapshot", "", "persist the canonical-tree caches to this file: warm from it on boot, rewrite it on graceful drain")
		maxProfiles   = flag.Int("max-profiles", 0, "max non-default option-profile engines (0 = default)")

		smoke       = flag.Bool("smoke", false, "run the serve-smoke self-check and exit (0 = pass)")
		streamSmoke = flag.Bool("stream-smoke", false, "run the streaming-telemetry self-check (stream=1 session, heartbeat, metrics) and exit (0 = pass)")
		traceSmoke  = flag.Bool("trace-smoke", false, "run the tracing self-check and exit (0 = pass)")
		scaleSmoke  = flag.Bool("scale-smoke", false, "run the concurrency-scaling self-check and exit (0 = pass)")
		soakSmoke   = flag.Bool("soak-smoke", false, "run the soak/chaos self-check (load, fault-injected sims, snapshot restart, warm) and exit (0 = pass)")
		distSmoke   = flag.Bool("dist-smoke", false, "run the partitioned-simulation self-check (sharded vs single-process counters, dist metrics) and exit (0 = pass)")
		verFlag     = flag.Bool("version", false, "print build info and exit")
		drainGrace  = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	)
	flag.Parse()

	switch {
	case *verFlag:
		fmt.Println(buildinfo.Version())
	case *smoke:
		if err := runSmoke(); err != nil {
			fmt.Fprintf(os.Stderr, "serve-smoke: FAIL: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("serve-smoke: PASS")
	case *traceSmoke:
		if err := runTraceSmoke(); err != nil {
			fmt.Fprintf(os.Stderr, "trace-smoke: FAIL: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("trace-smoke: PASS")
	case *scaleSmoke:
		if err := runScaleSmoke(*requests, *treeN, *shapes); err != nil {
			fmt.Fprintf(os.Stderr, "scale-smoke: FAIL: %v\n", err)
			os.Exit(1)
		}
	case *soakSmoke:
		if err := runSoakSmoke(*requests, *treeN, *shapes, *cacheSnapshot); err != nil {
			fmt.Fprintf(os.Stderr, "soak-smoke: FAIL: %v\n", err)
			os.Exit(1)
		}
	case *distSmoke:
		if err := runDistSmoke(); err != nil {
			fmt.Fprintf(os.Stderr, "dist-smoke: FAIL: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("dist-smoke: PASS")
	case *streamSmoke:
		if err := runStreamSmoke(); err != nil {
			fmt.Fprintf(os.Stderr, "stream-smoke: FAIL: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("stream-smoke: PASS")
	case *loadgen:
		if err := runLoadgen(*url, *conc, *requests, *treeN, *shapes, *tagTraces, *genSeed, *genHost, *streamFrac); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
	default:
		coalesceMode := engine.CoalesceOn
		if !*coalesce {
			coalesceMode = engine.CoalesceOff
		}
		cfg := server.Config{
			Addr: *addr,
			EngineConfig: engine.Config{
				Workers:     *workers,
				CacheSize:   *cache,
				CacheShards: *cacheShards,
				Coalesce:    coalesceMode,
				Parallel:    *parallel,
			},
			MaxConcurrent:  *maxConcurrent,
			MaxQueue:       *maxQueue,
			MaxProfiles:    *maxProfiles,
			SnapshotPath:   *cacheSnapshot,
			RequestTimeout: *timeout,
			MaxBodyBytes:   *maxBody,
			MaxBatch:       *maxBatch,
			MaxTreeNodes:   *maxTree,
			AccessLog:      !*quiet,
			TraceSample:    *traceSample,
			EnablePprof:    *enablePprof,
			Version:        buildinfo.Version(),
		}
		if err := serve(cfg, *drainGrace); err != nil {
			fmt.Fprintf(os.Stderr, "xtree-serve: %v\n", err)
			os.Exit(1)
		}
	}
}

// serve boots the server and blocks until SIGINT/SIGTERM, then drains.
func serve(cfg server.Config, grace time.Duration) error {
	s := server.New(cfg)
	if err := s.Start(); err != nil {
		return err
	}
	log.Printf("xtree-serve: %s", buildinfo.Version())
	log.Printf("xtree-serve: listening on http://%s", s.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	sig := <-sigc
	log.Printf("xtree-serve: %v received, draining (budget %s)", sig, grace)

	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	log.Printf("xtree-serve: drained, bye")
	return nil
}

// runLoadgen drives url (or a freshly booted local server when url is
// empty) and prints the client-side report plus the server's engine
// counters when it owns the server.
func runLoadgen(url string, conc, requests, treeN, shapes int, tagTraces bool, seed int64, host string, streamFrac float64) error {
	var s *server.Server
	if url == "" {
		s = server.New(server.Config{})
		if err := s.Start(); err != nil {
			return err
		}
		url = s.URL()
		fmt.Printf("loadgen: booted in-process server at %s\n", url)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		}()
	}
	rep, err := server.RunLoad(server.LoadConfig{
		BaseURL:        url,
		Concurrency:    conc,
		Requests:       requests,
		TreeN:          treeN,
		DistinctShapes: shapes,
		Trace:          tagTraces,
		Seed:           seed,
		Host:           host,
		StreamFrac:     streamFrac,
	})
	if err != nil {
		return err
	}
	fmt.Println(rep)
	if s != nil {
		st := s.Stats()
		fmt.Printf("engine: hits=%d misses=%d coalesced=%d evictions=%d hit_rate=%.2f workers=%d shards=%d utilization=%.2f avg_queue_wait=%s\n",
			st.Hits, st.Misses, st.Coalesced, st.Evictions, st.HitRate(), st.Workers, st.Shards,
			st.Utilization(), st.AvgQueueWait().Round(time.Microsecond))
	}
	return nil
}
