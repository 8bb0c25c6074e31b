package server

// loadgen.go is the closed-loop load generator behind `xtree-serve
// -loadgen` and experiment E18: N workers fire POST /v1/embed requests
// back-to-back against a live server and measure what a client actually
// sees — end-to-end latency percentiles (per-worker histograms merged
// afterwards, exercising Histogram.Merge for real), throughput, and how
// many requests the admission layer shed.  The request mix cycles
// through a configurable number of distinct shapes so the server-side
// canonical-tree cache sees a realistic repeat-heavy stream.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"xtreesim/internal/bintree"
	"xtreesim/internal/metrics"
	"xtreesim/internal/telemetry"
)

// LoadConfig configures one load-generation run.
type LoadConfig struct {
	// BaseURL is the server under test, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Concurrency is the closed-loop worker count (≤ 0 means 1).
	Concurrency int
	// Requests is the total request budget across workers (≤ 0 means
	// 100).
	Requests int
	// TreeN is the guest size per request (≤ 0 means 1008) and Family
	// the generator family ("" means random).
	TreeN  int
	Family string
	// DistinctShapes is how many distinct seeds the request mix cycles
	// through (≤ 0 means 8): small values are cache-friendly, large
	// values defeat the cache.
	DistinctShapes int
	// Timeout is the per-request client timeout (≤ 0 means 30s).
	Timeout time.Duration
	// Trace tags every request with a distinct X-Trace-Id header.  A
	// valid header forces server-side sampling, so a traced load run
	// exports one joinable trace per request regardless of the server's
	// sample rate — useful for phase-profiling under load.
	Trace bool
	// Seed is the master seed for the whole run: it derives both the
	// per-shape tree seeds and each worker's shape-selection stream, so
	// two runs with different seeds exercise genuinely different
	// request mixes, and two runs with the same seed send the same
	// requests.  The zero value is a seed like any other.
	Seed int64
	// Host selects the embed host type for the request mix: "" or
	// "xtree", "hypercube", "universal".  The e23 capacity sweep
	// measures rps per core for each.
	Host string
	// StreamFrac is the fraction of workers (rounded to the nearest
	// worker) that run streaming simulate sessions (?stream=1) and
	// drain the NDJSON event stream instead of posting embeds.  With
	// streamers attached the measured capacity includes the real cost
	// of per-cycle observers and session bookkeeping, which is exactly
	// what e23 wants to price.
	StreamFrac float64
}

// mix64 is the splitmix64 finalizer over a key pair: a cheap, stateless
// way to derive well-spread, independent seeds (shape i, worker w) from
// one master seed without any shared rand state.
func mix64(a, b uint64) int64 {
	z := a*0x9e3779b97f4a7c15 + b
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// shapeSeed returns the generator seed of shape i under master seed s.
func shapeSeed(s int64, i int) int64 { return mix64(uint64(s), uint64(i)+1) }

// workerSeed returns worker w's shape-selection rand seed under master
// seed s.
func workerSeed(s int64, w int) int64 {
	return mix64(uint64(s)^0xa5a5a5a5a5a5a5a5, uint64(w)+1)
}

// loadBodies pre-encodes the request mix: one body per distinct shape.
func loadBodies(family string, treeN, shapes int, seed int64, host string) ([][]byte, error) {
	bodies := make([][]byte, shapes)
	for i := range bodies {
		body, err := json.Marshal(EmbedRequest{
			Tree: &TreeSpec{Family: family, N: treeN, Seed: Seed(shapeSeed(seed, i))},
			Host: host,
		})
		if err != nil {
			return nil, err
		}
		bodies[i] = body
	}
	return bodies, nil
}

// simStreamBodies pre-encodes the streaming-worker mix: the same tree
// shapes, but as streaming simulate sessions.
func simStreamBodies(family string, treeN, shapes int, seed int64) ([][]byte, error) {
	bodies := make([][]byte, shapes)
	for i := range bodies {
		body, err := json.Marshal(SimulateRequest{
			Tree:     &TreeSpec{Family: family, N: treeN, Seed: Seed(shapeSeed(seed, i))},
			Workload: WorkloadDivideConquer,
		})
		if err != nil {
			return nil, err
		}
		bodies[i] = body
	}
	return bodies, nil
}

// LoadReport summarizes one load-generation run.
type LoadReport struct {
	Requests           int           // requests sent
	OK                 int           // 200 responses
	Shed               int           // 429 responses
	Errors             int           // transport errors and non-200/429 statuses
	CacheHits          int           // 200 responses answered from the engine cache
	StreamSessions     int           // OK responses that were drained stream=1 sessions
	StreamEvents       int64         // NDJSON events read across those sessions
	StreamDropped      int64         // events lost to ring overwrite (sum of dropped markers)
	Elapsed            time.Duration // wall time of the whole run
	Throughput         float64       // OK responses per second
	Latency            *metrics.Histogram
	P50, P95, P99, Max time.Duration
}

func (r *LoadReport) String() string {
	s := fmt.Sprintf("requests=%d ok=%d shed=%d errors=%d hits=%d elapsed=%s thpt=%.1f/s p50=%s p95=%s p99=%s max=%s",
		r.Requests, r.OK, r.Shed, r.Errors, r.CacheHits, r.Elapsed.Round(time.Millisecond),
		r.Throughput, r.P50.Round(time.Microsecond), r.P95.Round(time.Microsecond),
		r.P99.Round(time.Microsecond), r.Max.Round(time.Microsecond))
	if r.StreamSessions > 0 {
		s += fmt.Sprintf(" streams=%d stream_events=%d stream_dropped=%d",
			r.StreamSessions, r.StreamEvents, r.StreamDropped)
	}
	return s
}

// RunLoad drives the server at cfg.BaseURL and reports what the clients
// measured.  The request stream is deterministic given the config.
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	conc := cfg.Concurrency
	if conc <= 0 {
		conc = 1
	}
	total := cfg.Requests
	if total <= 0 {
		total = 100
	}
	treeN := cfg.TreeN
	if treeN <= 0 {
		treeN = 1008
	}
	family := cfg.Family
	if family == "" {
		family = string(bintree.FamilyRandom)
	}
	shapes := cfg.DistinctShapes
	if shapes <= 0 {
		shapes = 8
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	if _, ok := familyByName(family); !ok {
		return nil, fmt.Errorf("loadgen: unknown family %q", family)
	}
	switch cfg.Host {
	case "", HostXTree, HostHypercube, HostUniversal:
	default:
		return nil, fmt.Errorf("loadgen: unknown host %q", cfg.Host)
	}
	if cfg.StreamFrac < 0 || cfg.StreamFrac > 1 {
		return nil, fmt.Errorf("loadgen: stream-frac %v outside [0,1]", cfg.StreamFrac)
	}
	streamWorkers := int(cfg.StreamFrac*float64(conc) + 0.5)
	if cfg.StreamFrac > 0 && streamWorkers == 0 {
		streamWorkers = 1 // a nonzero fraction always attaches at least one
	}

	// Pre-encode the request bodies: the generator must not spend its
	// own time budget building JSON inside the measured loop.
	bodies, err := loadBodies(family, treeN, shapes, cfg.Seed, cfg.Host)
	if err != nil {
		return nil, err
	}
	var streamBodies [][]byte
	if streamWorkers > 0 {
		if streamBodies, err = simStreamBodies(family, treeN, shapes, cfg.Seed); err != nil {
			return nil, err
		}
	}

	client := &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conc,
		},
	}
	defer client.CloseIdleConnections()

	var next atomic.Int64
	var ok, shed, errs, hits atomic.Int64
	var streamSessions, streamEvents, streamDropped atomic.Int64
	hists := make([]*metrics.Histogram, conc)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conc; w++ {
		hists[w] = metrics.NewLatencyHistogram()
		wg.Add(1)
		// The first streamWorkers workers run streaming simulate sessions
		// against the shared request budget; the rest post embeds.
		if w < streamWorkers {
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(workerSeed(cfg.Seed, w)))
				for {
					i := next.Add(1) - 1
					if i >= int64(total) {
						return
					}
					body := streamBodies[rng.Intn(shapes)]
					t0 := time.Now()
					resp, err := client.Post(cfg.BaseURL+"/v1/simulate?stream=1",
						"application/json", bytes.NewReader(body))
					if err != nil {
						errs.Add(1)
						continue
					}
					switch resp.StatusCode {
					case http.StatusOK:
						events, dropped, err := drainStream(resp.Body)
						resp.Body.Close()
						hists[w].Observe(time.Since(t0).Seconds())
						if err != nil {
							errs.Add(1)
							continue
						}
						ok.Add(1)
						streamSessions.Add(1)
						streamEvents.Add(events)
						streamDropped.Add(dropped)
					case http.StatusTooManyRequests:
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						hists[w].Observe(time.Since(t0).Seconds())
						shed.Add(1)
					default:
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						hists[w].Observe(time.Since(t0).Seconds())
						errs.Add(1)
					}
				}
			}(w)
			continue
		}
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(workerSeed(cfg.Seed, w)))
			for {
				i := next.Add(1) - 1
				if i >= int64(total) {
					return
				}
				body := bodies[rng.Intn(shapes)]
				req, err := http.NewRequest(http.MethodPost, cfg.BaseURL+"/v1/embed", bytes.NewReader(body))
				if err != nil {
					errs.Add(1)
					continue
				}
				req.Header.Set("Content-Type", "application/json")
				if cfg.Trace {
					// Deterministic, distinct, nonzero: request index in
					// the low bits, a fixed tag in the high bits.
					req.Header.Set(TraceHeader, fmt.Sprintf("%016x", (uint64(i)+1)|(1<<48)))
				}
				t0 := time.Now()
				resp, err := client.Do(req)
				if err != nil {
					errs.Add(1)
					continue
				}
				var er EmbedResponse
				decErr := json.NewDecoder(resp.Body).Decode(&er)
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				hists[w].Observe(time.Since(t0).Seconds())
				switch {
				case resp.StatusCode == http.StatusOK && decErr == nil:
					ok.Add(1)
					if len(er.Items) == 1 && er.Items[0].CacheHit {
						hits.Add(1)
					}
				case resp.StatusCode == http.StatusTooManyRequests:
					shed.Add(1)
				default:
					errs.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	merged := hists[0]
	for _, h := range hists[1:] {
		if err := merged.Merge(h); err != nil {
			return nil, err
		}
	}
	sum := merged.Summary()
	rep := &LoadReport{
		Requests:       total,
		OK:             int(ok.Load()),
		Shed:           int(shed.Load()),
		Errors:         int(errs.Load()),
		CacheHits:      int(hits.Load()),
		StreamSessions: int(streamSessions.Load()),
		StreamEvents:   streamEvents.Load(),
		StreamDropped:  streamDropped.Load(),
		Elapsed:        elapsed,
		Latency:        merged,
		P50:            time.Duration(sum.P50 * float64(time.Second)),
		P95:            time.Duration(sum.P95 * float64(time.Second)),
		P99:            time.Duration(sum.P99 * float64(time.Second)),
		Max:            time.Duration(sum.Max * float64(time.Second)),
	}
	if elapsed > 0 {
		rep.Throughput = float64(rep.OK) / elapsed.Seconds()
	}
	return rep, nil
}

// drainStream reads a simulate session's NDJSON to EOF, counting events
// and summing dropped markers.  A stream that does not end in a result
// event is an error: the session died or the connection was cut short.
func drainStream(r io.Reader) (events, dropped int64, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	sawResult := false
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		events++
		// Full decode per line: the point of a streaming worker is to pay
		// what a real watching client pays.
		e, derr := telemetry.DecodeEvent(line)
		if derr != nil {
			return events, dropped, derr
		}
		switch e.Type {
		case telemetry.EventDropped:
			dropped += int64(e.Dropped)
		case telemetry.EventResult:
			sawResult = true
		case telemetry.EventError:
			return events, dropped, fmt.Errorf("session failed: %s", e.Reason)
		}
	}
	if err := sc.Err(); err != nil {
		return events, dropped, err
	}
	if !sawResult {
		return events, dropped, fmt.Errorf("stream ended without a result event")
	}
	return events, dropped, nil
}
