package xtreesim

// serve.go surfaces the embedding-as-a-service subsystem
// (internal/server): a stdlib-only HTTP front end over the shared batch
// engine with admission control, load shedding, per-request deadlines
// and a Prometheus /metrics endpoint.  `cmd/xtree-serve` is the
// production binary; this façade is for embedding the server in another
// process (or an httptest harness).

import (
	"xtreesim/internal/metrics"
	"xtreesim/internal/server"
)

type (
	// Server is one serving process over the JSON API
	// (POST /v1/embed, POST /v1/simulate, GET /healthz, GET /metrics).
	// Create with NewServer, boot with Start, stop with Shutdown.
	Server = server.Server
	// ServerConfig configures NewServer; the zero value serves on an
	// ephemeral localhost port with one admission slot per CPU and no
	// wait queue, so it sheds whenever every slot is busy (set MaxQueue
	// to queue; −1 means 4× the slots).
	ServerConfig = server.Config
	// LoadConfig configures RunLoad.
	LoadConfig = server.LoadConfig
	// LoadReport is RunLoad's client-side measurement: throughput,
	// latency percentiles, shed counts.
	LoadReport = server.LoadReport
	// LatencyHistogram is a mergeable log-spaced histogram with
	// p50/p95/p99 extraction, shared by /metrics and the load
	// generator.
	LatencyHistogram = metrics.Histogram
	// HistogramSummary is a point-in-time digest of a LatencyHistogram.
	HistogramSummary = metrics.HistogramSummary
)

// NewServer builds a server (not yet listening):
//
//	srv := xtreesim.NewServer(xtreesim.ServerConfig{Addr: ":8080"})
//	if err := srv.Start(); err != nil { ... }
//	defer srv.Shutdown(ctx)
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }

// RunLoad drives a running server with the closed-loop load generator
// and reports what the clients measured.
func RunLoad(cfg LoadConfig) (*LoadReport, error) { return server.RunLoad(cfg) }

// NewLatencyHistogram returns the serving-default latency histogram
// (log-spaced buckets from 100µs to 100s, 10 per decade).
func NewLatencyHistogram() *LatencyHistogram { return metrics.NewLatencyHistogram() }

// NewHistogram returns a histogram with a custom log-spaced layout.
func NewHistogram(lo, hi float64, perDecade int) *LatencyHistogram {
	return metrics.NewHistogram(lo, hi, perDecade)
}
