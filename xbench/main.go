// Command xbench is the xtreesim benchmark.  It boots cmd/xtree-serve as
// its own process, drives it over HTTP with nproc closed-loop clients,
// checks every answer, reconciles the server's /metrics counters with the
// clients' counts, reads the server's CPU time and peak RSS from /proc,
// and with -trace 1 replays a prefix of the workload in-process with a
// span around every layer call.  Build and run it with xbench/run.sh from
// the repository root:
//
//	bash xbench/run.sh --workload embed-hot --seed 1 --seconds 20 --trace 0
//	bash xbench/run.sh --workload all
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the end-to-end metrics (-trace 0) or the per-layer metrics
// (-trace 1), each with its unit.  A full record with provenance, and the
// traced run's spans, go to <out>/results.  The command exits non-zero
// when any answer is wrong, any request fails, or a counter does not
// reconcile.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// setups is how many times a -trace 0 run boots and warms a server;
// setup_s is their median, and the last one serves the timed run.
const setups = 5

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// windows is how many equal parts the timed run is cut into.  Throughput,
// p50 latency and CPU per request are the medians over the windows, so a
// burst from a neighbor on a shared host moves one window, not the
// result.  p99 needs every sample of the run.
const windows = 10

type config struct {
	seed          int64
	seconds       int
	serverBin     string
	out           string
	commit, dirty string
}

func main() {
	var cfg config
	name := flag.String("workload", "all", "embed-hot, embed-cold, simulate, or all (every workload, timed and traced)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed sends the same requests")
	flag.IntVar(&cfg.seconds, "seconds", defaultSeconds, "length of the timed run in seconds")
	traceFlag := flag.Int("trace", 0, "0: report the end-to-end metrics; 1: also run the traced replay and report the per-layer metrics")
	flag.StringVar(&cfg.serverBin, "server", "", "path of the xtree-serve binary under test")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for result records and span files")
	flag.StringVar(&cfg.commit, "commit", "unknown", "revision under test, for the provenance record")
	flag.StringVar(&cfg.dirty, "dirty", "unknown", "whether the tree under test had local changes")
	flag.Parse()
	if cfg.serverBin == "" || cfg.seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "xbench: need -server, -seconds >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var ok bool
	var err error
	if *name == "all" {
		ok, err = runAll(ctx, cfg)
	} else {
		ok, err = runOne(ctx, cfg, *name, *traceFlag == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// provenance travels with every result so the numbers can be read later.
type provenance struct {
	Workload            string    `json:"workload"`
	Seed                int64     `json:"seed"`
	Seconds             int       `json:"seconds"`
	Traced              bool      `json:"traced"`
	NumCPU              int       `json:"num_cpu"`
	Clients             int       `json:"clients"`
	GeneratorGOMAXPROCS int       `json:"generator_gomaxprocs"`
	ServerGOMAXPROCS    int       `json:"server_gomaxprocs"` // its engine workers, which default to GOMAXPROCS
	GoVersion           string    `json:"go_version"`
	ServerVersion       string    `json:"server_version"`
	Commit              string    `json:"commit"`
	Dirty               string    `json:"dirty"`
	Attempted           int       `json:"attempted"`
	OK                  int       `json:"ok"`
	Failed              int       `json:"failed"`
	ElapsedS            float64   `json:"elapsed_s"`
	Windows             int       `json:"windows"`
	SetupS              []float64 `json:"setup_s"`
	LatencySamples      int       `json:"latency_samples"`
	P99Beyond           int       `json:"latency_p99_samples_beyond"`
	FirstEventSamples   int       `json:"first_event_samples"`
	ReplayedRequests    int       `json:"replayed_requests,omitempty"`
	Reconciliation      []string  `json:"reconciliation_errors"`
	Errors              []string  `json:"errors,omitempty"`
}

// outcome is one workload's run.
type outcome struct {
	prov   provenance
	e2e    map[string]float64
	layers map[string]float64 // nil unless traced
}

func (o *outcome) correct() bool {
	return o.prov.Failed == 0 && len(o.prov.Reconciliation) == 0 && o.prov.Attempted > 0
}

func runOne(ctx context.Context, cfg config, name string, traced bool) (bool, error) {
	n := setups
	if traced {
		n = 1 // the traced run reports no setup time
	}
	o, err := runWorkload(ctx, cfg, name, traced, n)
	if err != nil {
		return false, err
	}
	defs, values := endToEnd, o.e2e
	if traced {
		defs, values = perLayer, o.layers
	}
	res := result{Correct: o.correct(), Attempted: o.prov.Attempted, Failed: o.prov.Failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{values[d.name], d.unit}
		fmt.Printf("%-11s %-32s %14.4f %s\n", name, d.name, values[d.name], d.unit)
	}
	if err := writeRecord(cfg, o); err != nil {
		return false, err
	}
	prov, _ := json.Marshal(o.prov)
	fmt.Printf("provenance %s\n", prov)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	return res.Correct, nil
}

// runAll runs every workload, timed and traced, and prints every metric.
func runAll(ctx context.Context, cfg config) (bool, error) {
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, d := range workloadDefs {
		o, err := runWorkload(ctx, cfg, d.name, true, setups)
		if err != nil {
			return false, err
		}
		if err := writeRecord(cfg, o); err != nil {
			return false, err
		}
		for _, group := range []struct {
			defs   []metricDef
			values map[string]float64
		}{{endToEnd, o.e2e}, {perLayer, o.layers}} {
			for _, m := range group.defs {
				all.Metrics[d.name+"/"+m.name] = metricValue{group.values[m.name], m.unit}
				fmt.Printf("%-11s %-32s %14.4f %s\n", d.name, m.name, group.values[m.name], m.unit)
			}
		}
		prov, _ := json.Marshal(o.prov)
		fmt.Printf("provenance %s\n", prov)
		all.Correct = all.Correct && o.correct()
		all.Attempted += o.prov.Attempted
		all.Failed += o.prov.Failed
	}
	line, _ := json.Marshal(all)
	fmt.Println(string(line))
	return all.Correct, nil
}

func runWorkload(ctx context.Context, cfg config, name string, traced bool, boots int) (*outcome, error) {
	w, err := newWorkload(name, cfg.seed)
	if err != nil {
		return nil, err
	}
	w.pregenerate(w.def.perSecond * cfg.seconds)
	chk := newChecker()
	clients := runtime.NumCPU()
	o := &outcome{prov: provenance{Workload: name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: traced,
		NumCPU: runtime.NumCPU(), Clients: clients, GeneratorGOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: cfg.commit, Dirty: cfg.dirty, Reconciliation: []string{}}}

	var srv *serverProc
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for k := 0; k < boots; k++ {
		if srv != nil {
			srv.stop()
		}
		start := time.Now()
		if srv, err = startServer(cfg.serverBin); err != nil {
			return nil, err
		}
		if err := srv.waitHealthy(ctx); err != nil {
			return nil, err
		}
		if err := warmUp(ctx, srv, w, chk); err != nil {
			return nil, err
		}
		o.prov.SetupS = append(o.prov.SetupS, time.Since(start).Seconds())
	}
	fmt.Fprintf(os.Stderr, "xbench: %s: warm in %.3fs, timed run of %ds\n", name, o.prov.SetupS[len(o.prov.SetupS)-1], cfg.seconds)

	v := &serverView{}
	if v.before, err = srv.scrape(ctx); err != nil {
		return nil, err
	}
	if err := srv.getJSON(ctx, "/v1/sessions", &v.sessBefore); err != nil {
		return nil, err
	}
	dur := time.Duration(cfg.seconds) * time.Second
	start := time.Now()
	stc := make(chan *loadStats, 1)
	go func() { stc <- runLoad(ctx, srv.url, clients, w, chk, start, dur) }()
	// The server's CPU time at every window boundary.
	cpu := make([]time.Duration, windows+1)
	var cpuErr error
	for k := range cpu {
		select {
		case <-ctx.Done():
		case <-time.After(time.Until(start.Add(dur * time.Duration(k) / windows))):
		}
		if cpuErr == nil {
			cpu[k], cpuErr = srv.cpuTime()
		}
	}
	st := <-stc
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cpuErr != nil {
		return nil, cpuErr
	}
	if v.peakRSS, err = srv.peakRSS(); err != nil {
		return nil, err
	}
	if v.after, err = waitQuiet(ctx, srv, v.before, st); err != nil {
		return nil, err
	}
	if err := srv.getJSON(ctx, "/v1/sessions", &v.sessAfter); err != nil {
		return nil, err
	}
	srv.stop()
	srv = nil
	v.cacheShards = int(v.after["xtreesim_engine_cache_shards"])
	for k := range v.after {
		if version, ok := strings.CutPrefix(k, `xtreesim_build_info{version="`); ok {
			o.prov.ServerVersion = strings.TrimSuffix(version, `"}`)
		}
	}

	p := &o.prov
	p.ServerGOMAXPROCS = int(v.after["xtreesim_engine_workers"])
	p.Attempted, p.OK, p.Failed, p.Errors = st.attempted, st.ok, st.failed, st.errors
	p.ElapsedS, p.Windows = st.elapsed.Seconds(), windows
	p.LatencySamples, p.FirstEventSamples = len(st.latencies), len(st.firstEvent)
	p.P99Beyond = len(st.latencies) - rank(len(st.latencies), 0.99)
	p.Reconciliation = append(p.Reconciliation, reconcile(name, v, st)...)
	if p.P99Beyond < 10 {
		fmt.Fprintf(os.Stderr, "xbench: %s: only %d samples beyond p99\n", name, p.P99Beyond)
	}

	var meanMS float64
	for _, l := range st.latencies {
		meanMS += l
	}
	meanMS = ratio(meanMS, float64(len(st.latencies)))
	rps, p50, cpuMS := windowed(st, cpu, dur)
	o.e2e = map[string]float64{
		"throughput_rps": rps,
		"latency_p50_ms": p50,
		"latency_p99_ms": quantile(st.latencies, 0.99),
		"cpu_ms_per_req": cpuMS,
		"server_rss_mb":  float64(v.peakRSS) / (1 << 20),
		"setup_s":        median(p.SetupS),
	}
	if !traced {
		return o, nil
	}

	o.layers = serverMetrics(v, st)
	spans, err := replay(ctx, w, chk, v.cacheShards)
	if err != nil {
		// The replay recomputes every answer it sends; one that fails or
		// disagrees with the server's counts as a failed check.
		if ctx.Err() != nil {
			return nil, err
		}
		p.Failed++
		p.Errors = append(p.Errors, "traced run: "+err.Error())
		return o, nil
	}
	p.ReplayedRequests = w.def.replay
	for k, val := range tracedMetrics(spans, meanMS*1e3) {
		o.layers[k] = val
	}
	return o, writeSpans(cfg, name, spans)
}

// warmUp sends the workload's warm pass and, for embed-cold, fills the
// engine cache to the capacity /metrics reports.
func warmUp(ctx context.Context, srv *serverProc, w *workload, chk *checker) error {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	st := newLoadStats()
	for _, r := range w.warm {
		send(ctx, hc, srv.url, r, chk, st)
	}
	for j := 0; w.fill != nil && st.failed == 0; j++ {
		p, err := srv.scrape(ctx)
		if err != nil {
			return err
		}
		full, capacity := p["xtreesim_engine_cache_entries"], p["xtreesim_engine_cache_capacity"]
		if full >= capacity {
			break
		}
		if j > 8*int(capacity)/len(w.fill(0).sizes) {
			return fmt.Errorf("warm: cache holds %g of %g after %d fill batches", full, capacity, j)
		}
		send(ctx, hc, srv.url, w.fill(j), chk, st)
	}
	if st.failed > 0 {
		return fmt.Errorf("warm pass: %s", strings.Join(st.errors, "; "))
	}
	return nil
}

func writeRecord(cfg config, o *outcome) error {
	rec := struct {
		Provenance provenance         `json:"provenance"`
		EndToEnd   map[string]float64 `json:"end_to_end"`
		PerLayer   map[string]float64 `json:"per_layer,omitempty"`
	}{o.prov, o.e2e, o.layers}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if o.prov.Traced {
		trace = 1
	}
	return writeResult(cfg, fmt.Sprintf("%s-seed%d-trace%d.json", o.prov.Workload, o.prov.Seed, trace), append(b, '\n'))
}

// writeSpans writes the traced run's spans, one JSON object per line.
func writeSpans(cfg config, name string, spans []*span) error {
	var b []byte
	for _, s := range spans {
		line, err := json.Marshal(s)
		if err != nil {
			return err
		}
		b = append(append(b, line...), '\n')
	}
	return writeResult(cfg, fmt.Sprintf("%s-seed%d.spans.jsonl", name, cfg.seed), b)
}

func writeResult(cfg config, file string, data []byte) error {
	dir := filepath.Join(cfg.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, file), data, 0o644)
}

// windowed returns the medians over the run's windows of throughput, p50
// latency and server CPU per request.  A request belongs to the window in
// which it completed; cpu holds the server's CPU time at each boundary.
func windowed(st *loadStats, cpu []time.Duration, dur time.Duration) (rps, p50, cpuMS float64) {
	n := len(cpu) - 1
	width := dur.Seconds() / float64(n)
	lat := make([][]float64, n)
	for i, d := range st.done {
		if k := int(d / width); k < n {
			lat[k] = append(lat[k], st.latencies[i])
		}
	}
	var r, p, c []float64
	for k := range lat {
		r = append(r, float64(len(lat[k]))/width)
		p = append(p, quantile(lat[k], 0.5))
		c = append(c, ratio(ms(cpu[k+1]-cpu[k]), float64(len(lat[k]))))
	}
	return median(r), median(p), median(c)
}
