package server

// promtext.go exports the server's counters in the Prometheus text
// exposition format, hand-rendered over the stdlib — no client library,
// per the subsystem's stdlib-only constraint.  Everything a dashboard
// needs to see the serving story is here: per-route/per-code request
// counts, the request-latency histogram with interpolated p50/p95/p99,
// the in-flight and queue gauges, the shed counter, the shared
// engine's own counters (cache hit rate, utilization, queue wait), and
// the Go runtime's GC cycles and GC CPU time.

import (
	"fmt"
	"math"
	"net/http"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"xtreesim/internal/metrics"
)

// serverMetrics is the mutable metric state shared by every route.
type serverMetrics struct {
	mu       sync.Mutex
	requests map[routeCode]int64

	latency *metrics.Histogram // request duration, seconds
}

type routeCode struct {
	route string
	code  int
}

func newServerMetrics() *serverMetrics {
	return &serverMetrics{
		requests: make(map[routeCode]int64),
		latency:  metrics.NewLatencyHistogram(),
	}
}

func (m *serverMetrics) record(route string, status int, dur time.Duration) {
	if status == 0 {
		status = http.StatusOK
	}
	m.mu.Lock()
	m.requests[routeCode{route, status}]++
	m.mu.Unlock()
	m.latency.Observe(dur.Seconds())
}

// snapshotRequests copies the counter map in route+code order.
func (m *serverMetrics) snapshotRequests() []requestCount {
	m.mu.Lock()
	out := make([]requestCount, 0, len(m.requests))
	for rc, n := range m.requests {
		out = append(out, requestCount{rc.route, rc.code, n})
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].route != out[j].route {
			return out[i].route < out[j].route
		}
		return out[i].code < out[j].code
	})
	return out
}

type requestCount struct {
	route string
	code  int
	count int64
}

// handleMetrics renders GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "/metrics accepts GET only")
		return
	}
	var b strings.Builder

	writeHelp(&b, "xtreesim_build_info", "gauge", "Build identity of the running binary; the value is always 1.")
	fmt.Fprintf(&b, "xtreesim_build_info{version=\"%s\"} 1\n", escapeLabelValue(s.version))

	writeHelp(&b, "xtreesim_http_requests_total", "counter", "HTTP requests served, by route and status code.")
	for _, rc := range s.metrics.snapshotRequests() {
		fmt.Fprintf(&b, "xtreesim_http_requests_total{route=\"%s\",code=\"%d\"} %d\n",
			escapeLabelValue(rc.route), rc.code, rc.count)
	}

	writeHelp(&b, "xtreesim_http_in_flight", "gauge", "API requests currently holding an admission slot.")
	fmt.Fprintf(&b, "xtreesim_http_in_flight %d\n", s.admit.inFlight())

	writeHelp(&b, "xtreesim_http_admission_queue", "gauge", "API requests waiting for an admission slot.")
	fmt.Fprintf(&b, "xtreesim_http_admission_queue %d\n", s.admit.queueLen())

	writeHelp(&b, "xtreesim_http_shed_total", "counter", "API requests rejected with 429 because the admission queue was full.")
	fmt.Fprintf(&b, "xtreesim_http_shed_total %d\n", s.admit.shedTotal())

	writeHelp(&b, "xtreesim_http_request_duration_seconds", "histogram", "Request latency over all routes.")
	writeHistogram(&b, "xtreesim_http_request_duration_seconds", "", s.metrics.latency)
	sum := s.metrics.latency.Summary()

	writeHelp(&b, "xtreesim_http_request_duration_quantile_seconds", "gauge", "Interpolated latency quantiles (p50/p95/p99).")
	for _, q := range []struct {
		label string
		v     float64
	}{{"0.5", sum.P50}, {"0.95", sum.P95}, {"0.99", sum.P99}} {
		fmt.Fprintf(&b, "xtreesim_http_request_duration_quantile_seconds{quantile=\"%s\"} %s\n", q.label, formatFloat(q.v))
	}

	es := s.eng.Stats()
	writeHelp(&b, "xtreesim_engine_cache_hits_total", "counter", "Batch-engine canonical-tree cache hits.")
	fmt.Fprintf(&b, "xtreesim_engine_cache_hits_total %d\n", es.Hits)
	writeHelp(&b, "xtreesim_engine_cache_misses_total", "counter", "Batch-engine cache misses (full embeddings run).")
	fmt.Fprintf(&b, "xtreesim_engine_cache_misses_total %d\n", es.Misses)
	writeHelp(&b, "xtreesim_engine_coalesced_total", "counter", "Jobs answered by waiting on another job's in-flight embedding (request coalescing).")
	fmt.Fprintf(&b, "xtreesim_engine_coalesced_total %d\n", es.Coalesced)
	writeHelp(&b, "xtreesim_engine_cache_evictions_total", "counter", "Cache entries evicted to admit newer embeddings.")
	fmt.Fprintf(&b, "xtreesim_engine_cache_evictions_total %d\n", es.Evictions)
	writeHelp(&b, "xtreesim_engine_cache_entries", "gauge", "Embeddings currently cached.")
	fmt.Fprintf(&b, "xtreesim_engine_cache_entries %d\n", es.CacheLen)
	writeHelp(&b, "xtreesim_engine_cache_capacity", "gauge", "Cache capacity across all shards.")
	fmt.Fprintf(&b, "xtreesim_engine_cache_capacity %d\n", es.CacheCap)
	writeHelp(&b, "xtreesim_engine_cache_shards", "gauge", "Lock shards striping the canonical-tree cache.")
	fmt.Fprintf(&b, "xtreesim_engine_cache_shards %d\n", es.Shards)
	writeHelp(&b, "xtreesim_engine_cache_shard_entries", "gauge", "Embeddings cached per shard.")
	for i, sh := range s.eng.ShardStats() {
		fmt.Fprintf(&b, "xtreesim_engine_cache_shard_entries{shard=\"%d\"} %d\n", i, sh.Len)
	}
	writeHelp(&b, "xtreesim_engine_warm_loaded_total", "counter", "Snapshot records loaded into the cache at warm.")
	fmt.Fprintf(&b, "xtreesim_engine_warm_loaded_total %d\n", es.WarmLoaded)
	writeHelp(&b, "xtreesim_engine_warm_skipped_total", "counter", "Snapshot records rejected at warm as corrupt, stale, or mismatched.")
	fmt.Fprintf(&b, "xtreesim_engine_warm_skipped_total %d\n", es.WarmSkipped)
	writeHelp(&b, "xtreesim_engine_jobs_submitted_total", "counter", "Jobs accepted by the engine.")
	fmt.Fprintf(&b, "xtreesim_engine_jobs_submitted_total %d\n", es.Submitted)
	writeHelp(&b, "xtreesim_engine_jobs_completed_total", "counter", "Jobs finished by the engine, including errors.")
	fmt.Fprintf(&b, "xtreesim_engine_jobs_completed_total %d\n", es.Completed)
	writeHelp(&b, "xtreesim_engine_jobs_errored_total", "counter", "Jobs finished with an error.")
	fmt.Fprintf(&b, "xtreesim_engine_jobs_errored_total %d\n", es.Errors)
	writeHelp(&b, "xtreesim_engine_in_flight", "gauge", "Jobs on an engine worker right now.")
	fmt.Fprintf(&b, "xtreesim_engine_in_flight %d\n", es.InFlight)
	writeHelp(&b, "xtreesim_engine_workers", "gauge", "Engine worker count.")
	fmt.Fprintf(&b, "xtreesim_engine_workers %d\n", es.Workers)
	writeHelp(&b, "xtreesim_engine_utilization", "gauge", "Fraction of worker-seconds spent embedding since start.")
	fmt.Fprintf(&b, "xtreesim_engine_utilization %s\n", formatFloat(es.Utilization()))
	writeHelp(&b, "xtreesim_engine_avg_queue_wait_seconds", "gauge", "Mean time a completed job waited for a worker.")
	fmt.Fprintf(&b, "xtreesim_engine_avg_queue_wait_seconds %s\n", formatFloat(es.AvgQueueWait().Seconds()))
	writeHelp(&b, "xtreesim_engine_queue_depth", "gauge", "Jobs accepted but not yet on a worker.")
	fmt.Fprintf(&b, "xtreesim_engine_queue_depth %d\n", es.QueueDepth())

	// Partitioned-simulation series: how often /v1/simulate runs through
	// the distsim coordinator, and how the work and the cross-shard
	// traffic distribute over shard indices.
	ds := s.dist.snapshot()
	writeHelp(&b, "xtreesim_dist_runs_total", "counter", "Partitioned simulations served, by shard count.")
	for _, c := range ds.runs {
		fmt.Fprintf(&b, "xtreesim_dist_runs_total{partitions=\"%d\"} %d\n", c.key, c.count)
	}
	writeHelp(&b, "xtreesim_dist_boundary_messages_total", "counter", "Messages exchanged across shard boundaries in partitioned simulations.")
	fmt.Fprintf(&b, "xtreesim_dist_boundary_messages_total %d\n", ds.boundaryMsgs)
	writeHelp(&b, "xtreesim_dist_partition_hops_total", "counter", "Link traversals executed, by shard index, across partitioned simulations.")
	for _, c := range ds.shardHops {
		fmt.Fprintf(&b, "xtreesim_dist_partition_hops_total{partition=\"%d\"} %d\n", c.key, c.count)
	}
	writeHelp(&b, "xtreesim_dist_partition_boundary_out_total", "counter", "Messages shipped to other shards, by originating shard index.")
	for _, c := range ds.shardBoundary {
		fmt.Fprintf(&b, "xtreesim_dist_partition_boundary_out_total{partition=\"%d\"} %d\n", c.key, c.count)
	}

	// Live-telemetry series: streaming sessions, attached event streams,
	// and — the honesty metric — how many events subscribers lost to ring
	// overwrite instead of stalling the simulator.
	writeHelp(&b, "xtreesim_session_active", "gauge", "Streaming simulate sessions running right now.")
	fmt.Fprintf(&b, "xtreesim_session_active %d\n", s.sessions.active())
	writeHelp(&b, "xtreesim_sessions_started_total", "counter", "Streaming simulate sessions opened.")
	fmt.Fprintf(&b, "xtreesim_sessions_started_total %d\n", s.sessions.started.Load())
	writeHelp(&b, "xtreesim_sessions_completed_total", "counter", "Streaming sessions finished successfully.")
	fmt.Fprintf(&b, "xtreesim_sessions_completed_total %d\n", s.sessions.completed.Load())
	writeHelp(&b, "xtreesim_sessions_failed_total", "counter", "Streaming sessions finished with an error.")
	fmt.Fprintf(&b, "xtreesim_sessions_failed_total %d\n", s.sessions.failed.Load())
	writeHelp(&b, "xtreesim_session_events_published_total", "counter", "Telemetry events published into session rings (live and recent sessions).")
	fmt.Fprintf(&b, "xtreesim_session_events_published_total %d\n", s.sessions.eventsTotal())
	writeHelp(&b, "xtreesim_session_streams_active", "gauge", "Attached session event streams (GET /v1/sessions/{id}/events).")
	fmt.Fprintf(&b, "xtreesim_session_streams_active %d\n", s.streams.Active())
	writeHelp(&b, "xtreesim_telemetry_dropped_total", "counter", "Telemetry events lost to ring overwrite because a subscriber fell behind.")
	fmt.Fprintf(&b, "xtreesim_telemetry_dropped_total %d\n", s.sessions.droppedTotal())

	if s.tracer != nil {
		phases := s.tracer.PhaseHistograms()
		names := make([]string, 0, len(phases))
		for name := range phases {
			names = append(names, name)
		}
		sort.Strings(names)
		writeHelp(&b, "xtreesim_trace_phase_duration_seconds", "histogram",
			"Sampled span durations by phase (span name), across all traces.")
		for _, name := range names {
			writeHistogram(&b, "xtreesim_trace_phase_duration_seconds",
				fmt.Sprintf("phase=\"%s\"", escapeLabelValue(name)), phases[name])
		}
		writeHelp(&b, "xtreesim_trace_spans_recorded_total", "counter", "Spans recorded into the trace ring.")
		fmt.Fprintf(&b, "xtreesim_trace_spans_recorded_total %d\n", s.tracer.Recorded())
		writeHelp(&b, "xtreesim_trace_spans_dropped_total", "counter", "Spans overwritten before export (ring overflow).")
		fmt.Fprintf(&b, "xtreesim_trace_spans_dropped_total %d\n", s.tracer.Dropped())
	}

	// The runtime's own GC counters, which tell a change that saves
	// allocations where the saving shows.  runtime/metrics reads them
	// without stopping the world, unlike runtime.ReadMemStats.
	gc := []rtmetrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(gc)
	writeHelp(&b, "xtreesim_go_gc_cycles_total", "counter", "Garbage collection cycles completed since the process started.")
	fmt.Fprintf(&b, "xtreesim_go_gc_cycles_total %d\n", gc[0].Value.Uint64())
	writeHelp(&b, "xtreesim_go_gc_cpu_seconds_total", "counter", "Estimated CPU time the garbage collector has used since the process started.")
	fmt.Fprintf(&b, "xtreesim_go_gc_cpu_seconds_total %s\n", formatFloat(gc[1].Value.Float64()))

	writeHelp(&b, "xtreesim_uptime_seconds", "gauge", "Seconds since the server started.")
	fmt.Fprintf(&b, "xtreesim_uptime_seconds %s\n", formatFloat(time.Since(s.started).Seconds()))

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	if r.Method != http.MethodHead {
		_, _ = w.Write([]byte(b.String()))
	}
}

func writeHelp(b *strings.Builder, name, typ, help string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// writeHistogram renders one histogram series in the order the text
// format mandates: cumulative _bucket lines ending at le="+Inf", then
// _sum, then _count.  labels is either empty or a pre-escaped
// `key="value"` fragment merged with the le label.
func writeHistogram(b *strings.Builder, name, labels string, h *metrics.Histogram) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	for _, bk := range h.Buckets() {
		le := "+Inf"
		if !math.IsInf(bk.Le, 1) {
			le = formatFloat(bk.Le)
		}
		fmt.Fprintf(b, "%s_bucket{%s%sle=\"%s\"} %d\n", name, labels, sep, le, bk.Count)
	}
	if labels != "" {
		fmt.Fprintf(b, "%s_sum{%s} %s\n", name, labels, formatFloat(h.Sum()))
		fmt.Fprintf(b, "%s_count{%s} %d\n", name, labels, h.Count())
	} else {
		fmt.Fprintf(b, "%s_sum %s\n", name, formatFloat(h.Sum()))
		fmt.Fprintf(b, "%s_count %d\n", name, h.Count())
	}
}

// labelEscaper implements the Prometheus text-format escaping rules for
// label values: exactly backslash, double quote and newline are escaped
// — nothing else.  (%q is wrong here: it also escapes tabs, control
// bytes and non-ASCII runes, which the format wants verbatim UTF-8.)
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabelValue(s string) string { return labelEscaper.Replace(s) }

// formatFloat renders a metric value the way Prometheus parsers expect:
// plain decimal, no exponent for the common magnitudes.
func formatFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}
