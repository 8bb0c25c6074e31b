// Package server is the embedding-as-a-service subsystem: a stdlib-only
// HTTP front end over the batch engine (internal/engine) and the network
// simulator (internal/netsim).  The library's one-shot calls become a
// long-running process with the production behaviors the ROADMAP's
// "heavy traffic" goal demands:
//
//   - a bounded admission queue with load shedding — overload answers
//     429 + Retry-After at the door instead of queueing without bound;
//   - per-request deadlines propagated as context.Context into the
//     engine and the simulator, both of which poll it;
//   - request-size limits and input validation mapped to structured 4xx
//     errors ({"error":{"code":...,"message":...}});
//   - panic recovery, structured access logging, and a Prometheus text
//     /metrics endpoint (latency histogram with p50/p95/p99, per-route
//     counters, shed counter, engine cache/utilization counters);
//   - graceful shutdown: stop accepting, drain in-flight requests, then
//     close the engine.
//
// All embedding requests share one engine, so concurrent clients asking
// for isomorphic guests — the common case in tree-shaped workloads — hit
// the canonical-tree cache instead of re-running algorithm X-TREE.
//
// Routes:
//
//	POST /v1/embed                 embed one tree or a batch (host: xtree/hypercube/universal)
//	POST /v1/simulate              embed + run a workload on the simulated X-tree machine
//	                               (?stream=1 streams the run as an NDJSON session)
//	GET  /v1/sessions              list live and recent streaming sessions
//	GET  /v1/sessions/{id}/events  attach to a session's event stream (NDJSON,
//	                               Last-Event-ID resume)
//	GET  /healthz                  liveness + uptime + active session count
//	GET  /metrics                  Prometheus text exposition
//	GET  /debug/trace              exported spans (JSONL; ?format=chrome for chrome://tracing)
//	GET  /debug/pprof              runtime profiles (only with Config.EnablePprof)
package server

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"xtreesim/internal/buildinfo"
	"xtreesim/internal/engine"
	"xtreesim/internal/trace"
)

// Defaults for the zero Config.
const (
	DefaultRequestTimeout = 15 * time.Second
	DefaultMaxBodyBytes   = 1 << 20 // 1 MiB of JSON is ~a 25k-node encoded tree batch
	DefaultMaxBatch       = 64
	DefaultMaxTreeNodes   = 1 << 17
	// DefaultHeartbeatInterval paces the keep-alive events on idle
	// session streams; DefaultStreamTimeout bounds how long one attach
	// connection may stay open.
	DefaultHeartbeatInterval = 10 * time.Second
	DefaultStreamTimeout     = 10 * time.Minute
)

// Config configures a Server.  The zero value listens on 127.0.0.1:0
// with one admission slot per CPU, a 4×-slots wait queue, and the
// defaults above.
type Config struct {
	// Addr is the listen address; "" means 127.0.0.1:0 (an ephemeral
	// port, read back with Addr after Start).
	Addr string

	// Engine, when non-nil, is a caller-owned engine the server uses
	// as the default-profile engine without closing.  When nil the
	// server creates one from EngineConfig and closes it on Shutdown.
	// Either way EngineConfig is the template non-default option
	// profiles (strict mode, pinned heights) derive their engines from.
	Engine       *engine.Engine
	EngineConfig engine.Config

	// MaxProfiles bounds how many non-default option-profile engines
	// the server materializes (≤ 0 means DefaultMaxProfiles).  Requests
	// beyond the cap are still served, just without caching.
	MaxProfiles int

	// SnapshotPath, when non-empty, persists the canonical-tree caches
	// across restarts: New warms every profile engine from the file if
	// it exists, and Shutdown writes a fresh snapshot after the drain.
	// A corrupt or stale file degrades to a cold start, never a failed
	// boot.
	SnapshotPath string

	// MaxConcurrent bounds the API requests processed at once (≤ 0
	// means GOMAXPROCS).  MaxQueue bounds the requests waiting for a
	// slot (< 0 means 4×MaxConcurrent, 0 means shed whenever every
	// slot is busy).
	MaxConcurrent int
	MaxQueue      int

	// RequestTimeout is the per-request deadline (≤ 0 means
	// DefaultRequestTimeout).  It propagates as a context into the
	// engine and the simulator.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies (≤ 0 means DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// MaxBatch caps trees per embed request (≤ 0 means DefaultMaxBatch).
	MaxBatch int
	// MaxTreeNodes caps nodes per guest tree (≤ 0 means
	// DefaultMaxTreeNodes).
	MaxTreeNodes int

	// Logger receives access and error logs; nil means stderr.
	// AccessLog enables the per-request log line.
	Logger    *log.Logger
	AccessLog bool

	// Tracer, when non-nil, receives a root span per sampled request and
	// all the engine/embedder/simulator phase spans below it.  When nil
	// and TraceSample > 0 the server creates its own tracer (exported at
	// /debug/trace).  TraceSample is the fraction of requests traced,
	// 0..1; requests carrying a valid X-Trace-Id header are always
	// traced, joining the caller's trace ID.
	Tracer      *trace.Tracer
	TraceSample float64

	// EnablePprof registers net/http/pprof's profile handlers under
	// /debug/pprof/.  Off by default: profiles expose internals and cost
	// CPU, so the operator opts in (xtree-serve -pprof).
	EnablePprof bool

	// Version is reported by /healthz and the xtreesim_build_info metric;
	// "" means buildinfo.Version().
	Version string

	// MaxStreams bounds concurrently attached session event streams
	// (GET /v1/sessions/{id}/events); ≤ 0 means 2×MaxConcurrent.
	// Streaming simulate requests are not counted here — they hold an
	// admission slot for the whole stream instead.
	MaxStreams int
	// HeartbeatInterval paces keep-alive events on idle streams (≤ 0
	// means DefaultHeartbeatInterval).
	HeartbeatInterval time.Duration
	// StreamTimeout bounds one attach connection (≤ 0 means
	// DefaultStreamTimeout).
	StreamTimeout time.Duration
	// TelemetryRing sets the per-session event ring size (≤ 0 means
	// telemetry.DefaultRingSize).  Subscribers further behind than the
	// ring lose events, visibly, instead of stalling the simulator.
	TelemetryRing int
	// RecentSessions is how many finished sessions stay listable and
	// attachable (≤ 0 means DefaultRecentSessions).
	RecentSessions int
}

// Server is one serving process.  Create with New, boot with Start, stop
// with Shutdown.
type Server struct {
	pool         *enginePool
	snapshotPath string
	admit        *admission
	metrics      *serverMetrics
	dist         *distMetrics
	logger       *log.Logger
	accessLog    bool
	version      string
	tracer       *trace.Tracer
	enablePprof  bool

	requestTimeout time.Duration
	maxBodyBytes   int64
	maxBatch       int
	maxTreeNodes   int

	sessions          *sessionRegistry
	streams           *streamGate
	heartbeatInterval time.Duration
	streamTimeout     time.Duration
	telemetryRing     int

	httpServer *http.Server
	listener   net.Listener
	started    time.Time

	mu       sync.Mutex
	running  bool
	draining bool
	serveErr chan error
}

// New builds a Server from the config.  It does not listen yet.
func New(cfg Config) *Server {
	maxConc := cfg.MaxConcurrent
	if maxConc <= 0 {
		maxConc = runtime.GOMAXPROCS(0)
	}
	maxQueue := cfg.MaxQueue
	if maxQueue < 0 {
		maxQueue = 4 * maxConc
	}
	pool := newEnginePool(cfg.EngineConfig, cfg.Engine, cfg.MaxProfiles)
	logger := cfg.Logger
	if logger == nil {
		logger = log.New(os.Stderr, "xtree-serve ", log.LstdFlags|log.Lmsgprefix)
	}
	tracer := cfg.Tracer
	if tracer == nil && cfg.TraceSample > 0 {
		// A serving ring holds a few thousand requests' worth of spans.
		tracer = trace.New(trace.Config{SampleRate: cfg.TraceSample, RingSize: 1 << 15})
	}
	maxStreams := cfg.MaxStreams
	if maxStreams <= 0 {
		maxStreams = 2 * maxConc
	}
	version := cfg.Version
	if version == "" {
		version = buildinfo.Version()
	}
	s := &Server{
		pool:              pool,
		snapshotPath:      cfg.SnapshotPath,
		admit:             newAdmission(maxConc, maxQueue),
		metrics:           newServerMetrics(),
		dist:              newDistMetrics(),
		logger:            logger,
		accessLog:         cfg.AccessLog,
		version:           version,
		tracer:            tracer,
		enablePprof:       cfg.EnablePprof,
		requestTimeout:    cfg.RequestTimeout,
		maxBodyBytes:      cfg.MaxBodyBytes,
		maxBatch:          cfg.MaxBatch,
		maxTreeNodes:      cfg.MaxTreeNodes,
		sessions:          newSessionRegistry(cfg.RecentSessions),
		streams:           &streamGate{max: int64(maxStreams)},
		heartbeatInterval: cfg.HeartbeatInterval,
		streamTimeout:     cfg.StreamTimeout,
		telemetryRing:     cfg.TelemetryRing,
		started:           time.Now(),
		serveErr:          make(chan error, 1),
	}
	if s.requestTimeout <= 0 {
		s.requestTimeout = DefaultRequestTimeout
	}
	if s.heartbeatInterval <= 0 {
		s.heartbeatInterval = DefaultHeartbeatInterval
	}
	if s.streamTimeout <= 0 {
		s.streamTimeout = DefaultStreamTimeout
	}
	if s.maxBodyBytes <= 0 {
		s.maxBodyBytes = DefaultMaxBodyBytes
	}
	if s.maxBatch <= 0 {
		s.maxBatch = DefaultMaxBatch
	}
	if s.maxTreeNodes <= 0 {
		s.maxTreeNodes = DefaultMaxTreeNodes
	}
	addr := cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	s.httpServer = &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ErrorLog:          logger,
	}
	if s.snapshotPath != "" {
		s.warmFromSnapshot()
	}
	return s
}

// warmFromSnapshot fills the engine caches from the configured snapshot
// file.  Any failure — missing file, foreign content, truncated records
// — degrades to a cold start; boot never fails on cache state.
func (s *Server) warmFromSnapshot() {
	f, err := os.Open(s.snapshotPath)
	if err != nil {
		if !os.IsNotExist(err) {
			s.logger.Printf("cache warm: open %s: %v (starting cold)", s.snapshotPath, err)
		}
		return
	}
	defer f.Close()
	ws, err := s.pool.warm(f)
	if err != nil {
		s.logger.Printf("cache warm: %s: %v (loaded %d, skipped %d)", s.snapshotPath, err, ws.Loaded, ws.Skipped)
		return
	}
	s.logger.Printf("cache warm: %s: loaded %d records, skipped %d", s.snapshotPath, ws.Loaded, ws.Skipped)
}

// writeSnapshot persists every profile engine's cache to the configured
// path via a temp-file rename, so a crash mid-write can never clobber
// the previous good snapshot with a torn one.
func (s *Server) writeSnapshot() {
	tmp := s.snapshotPath + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		s.logger.Printf("cache snapshot: create %s: %v", tmp, err)
		return
	}
	n, err := s.pool.snapshot(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, s.snapshotPath)
	}
	if err != nil {
		s.logger.Printf("cache snapshot: %s: %v", s.snapshotPath, err)
		os.Remove(tmp)
		return
	}
	s.logger.Printf("cache snapshot: %s: wrote %d records", s.snapshotPath, n)
}

// Handler returns the full route tree, usable directly with httptest.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/embed", s.guarded("/v1/embed", s.handleEmbed))
	mux.Handle("/v1/simulate", s.guarded("/v1/simulate", s.handleSimulate))
	// The session routes stay outside the admission gate: listing is
	// cheap, and attach streams are bounded by their own MaxStreams
	// budget (a queued-then-admitted stream would hold an API slot for
	// minutes and starve embed traffic).
	mux.Handle("/v1/sessions", s.instrument("/v1/sessions", s.handleSessions))
	mux.Handle("/v1/sessions/{id}/events", s.instrument("/v1/sessions/events", s.handleSessionEvents))
	mux.Handle("/healthz", s.instrument("/healthz", s.handleHealthz))
	mux.Handle("/metrics", s.instrument("/metrics", s.handleMetrics))
	if s.tracer != nil {
		mux.Handle("/debug/trace", s.instrument("/debug/trace", s.handleDebugTrace))
	}
	if s.enablePprof {
		// Explicit registration instead of the package's init-time
		// DefaultServeMux side effect, so profiles exist only when the
		// operator asked for them.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.Handle("/", s.instrument("other", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, CodeNotFound, "no such route (have /v1/embed, /v1/simulate, /v1/sessions, /healthz, /metrics)")
	}))
	return mux
}

// Tracer returns the server's span tracer (nil when tracing is off),
// for embedding processes that want to export spans themselves.
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// Start listens on the configured address and serves in the background.
// After Start, Addr reports the bound address.  Serve errors surface
// from Shutdown.
func (s *Server) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		return fmt.Errorf("server: already started")
	}
	ln, err := net.Listen("tcp", s.httpServer.Addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", s.httpServer.Addr, err)
	}
	s.listener = ln
	s.running = true
	go func() {
		err := s.httpServer.Serve(ln)
		if err == http.ErrServerClosed {
			err = nil
		}
		s.serveErr <- err
	}()
	return nil
}

// Addr returns the bound address ("127.0.0.1:41893") after Start.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// URL returns "http://<addr>" after Start.
func (s *Server) URL() string {
	a := s.Addr()
	if a == "" {
		return ""
	}
	return "http://" + a
}

// Shutdown drains the server: it stops accepting connections, waits for
// every in-flight request to finish (bounded by ctx), and then closes
// the engine if the server owns it.  Safe to call once after Start.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.running {
		s.mu.Unlock()
		return nil
	}
	s.running = false
	s.draining = true
	s.mu.Unlock()

	err := s.httpServer.Shutdown(ctx)
	serveErr := <-s.serveErr
	// Snapshot after the drain — every in-flight request has finished,
	// so the caches are quiescent — and before closing the engines.
	if s.snapshotPath != "" {
		s.writeSnapshot()
	}
	s.pool.close()
	if err == nil {
		err = serveErr
	}
	return err
}

// handleHealthz renders GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "/healthz accepts GET only")
		return
	}
	status := "ok"
	s.mu.Lock()
	if s.draining {
		status = "shutting_down"
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:         status,
		UptimeSeconds:  time.Since(s.started).Seconds(),
		Version:        s.version,
		ActiveSessions: s.sessions.active(),
	})
}

// requestContext derives the per-request deadline context.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.requestTimeout)
}

// retryAfter hints how long a shed client should back off: the request
// timeout is the worst-case slot-hold time, rounded up to whole seconds.
func (s *Server) retryAfter() string {
	secs := int(s.requestTimeout.Seconds())
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// Stats exposes the engine counters aggregated across every profile
// engine (for the load generator's report).  Sizing fields (Workers,
// Shards, Uptime) report the default-profile engine; work and cache
// counters sum over all profiles.
func (s *Server) Stats() engine.Stats { return s.pool.aggregateStats() }

// ProfileStats snapshots every materialized profile engine, default
// profile first — the per-profile view behind /metrics.
func (s *Server) ProfileStats() []ProfileStat { return s.pool.profileStats() }
