// Command xtree-serve runs the embedding service: a long-running HTTP
// process over the shared batch engine with admission control, load
// shedding, per-request deadlines and Prometheus metrics.
//
// Usage:
//
//	xtree-serve -addr :8080                 # serve until SIGINT/SIGTERM
//	xtree-serve -pprof -trace-sample 0.1    # serve with observability on
//	xtree-serve -cache-snapshot cache.snap  # serve with cache persistence across restarts
//	xtree-serve -version
//
// Serving flags tune the production knobs: -workers, -cache and
// -cache-shards size the engine (one serial embed per worker),
// -max-concurrent and -queue bound admission, -timeout is the
// per-request deadline, -max-body/-max-batch/-max-tree cap inputs
// (-max-tree also bounds the host height a request may pin).
// Observability: -trace-sample samples that fraction of requests into
// /debug/trace (clients sending X-Trace-Id are always traced), -pprof
// exposes /debug/pprof/.
//
// The tests of internal/server and internal/engine check the serving
// behaviour end to end over real HTTP; `go test ./...` runs them.  To
// put load on a running server, use the benchmark driver:
// `bash xbench/run.sh --workload embed-hot`.
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

		maxConcurrent = flag.Int("max-concurrent", 0, "API requests processed at once (0 = one per CPU)")
		maxQueue      = flag.Int("queue", -1, "admission wait-queue length (-1 = 4x max-concurrent, 0 = shed when busy)")
		timeout       = flag.Duration("timeout", server.DefaultRequestTimeout, "per-request deadline")
		maxBody       = flag.Int64("max-body", server.DefaultMaxBodyBytes, "max request body bytes")
		maxBatch      = flag.Int("max-batch", server.DefaultMaxBatch, "max trees per embed request")
		maxTree       = flag.Int("max-tree", server.DefaultMaxTreeNodes, "max nodes per guest tree")
		quiet         = flag.Bool("quiet", false, "disable per-request access logging")

		traceSample = flag.Float64("trace-sample", 0, "fraction of requests traced into /debug/trace (0 = off, 1 = all)")
		enablePprof = flag.Bool("pprof", false, "expose /debug/pprof/ profile endpoints")

		cacheSnapshot = flag.String("cache-snapshot", "", "persist the canonical-tree cache to this file: warm from it on boot, rewrite it on graceful drain")

		verFlag    = flag.Bool("version", false, "print build info and exit")
		drainGrace = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	)
	flag.Parse()

	if *verFlag {
		fmt.Println(buildinfo.Version())
		return
	}
	cfg := server.Config{
		Addr: *addr,
		EngineConfig: engine.Config{
			Workers:     *workers,
			CacheSize:   *cache,
			CacheShards: *cacheShards,
		},
		MaxConcurrent:  *maxConcurrent,
		MaxQueue:       *maxQueue,
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
