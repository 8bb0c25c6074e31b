package main

import (
	"fmt"
	"os"

	"xtreesim"

	"xtreesim/internal/bintree"
	"xtreesim/internal/core"
	"xtreesim/internal/engine"
	"xtreesim/internal/netsim"
)

// traceWritten makes -trace capture only the first simulator run: one
// coherent trace file instead of the last run silently overwriting all
// the earlier ones.
var traceWritten bool

// simRun wraps netsim.Run for every simulator call in the bench: -audit
// attaches a LinkAudit (a violation aborts the bench — the tables would
// be fiction), and -trace exports the first run as a Chrome trace file.
func simRun(cfg netsim.Config, wl netsim.Workload) (netsim.Result, error) {
	var audit *netsim.LinkAudit
	if *auditRuns {
		audit = netsim.NewLinkAudit()
		cfg.Observers = append(cfg.Observers, audit)
	}
	var rec *netsim.TraceRecorder
	if *tracePath != "" && !traceWritten {
		rec = netsim.NewTraceRecorder()
		cfg.Observers = append(cfg.Observers, rec)
	}
	res, err := netsim.Run(cfg, wl)
	if err != nil {
		return res, err
	}
	if audit != nil {
		if aerr := audit.Err(); aerr != nil {
			return res, aerr
		}
	}
	if rec != nil {
		traceWritten = true
		f, ferr := os.Create(*tracePath)
		if ferr != nil {
			return res, ferr
		}
		defer f.Close()
		if ferr := rec.WriteChromeTrace(f); ferr != nil {
			return res, ferr
		}
		fmt.Fprintf(os.Stderr, "trace: wrote %d events to %s\n", len(rec.Events()), *tracePath)
	}
	return res, nil
}

// reportEngineStats prints the engine observability counters to stderr,
// keeping stdout clean for the Markdown tables.
func reportEngineStats(eng *engine.Engine) {
	s := eng.Stats()
	fmt.Fprintf(os.Stderr,
		"engine: %d workers, %d embedded (%d hits / %d misses, hit rate %.0f%%), utilization %.0f%%, avg queue wait %s\n",
		s.Workers, s.Completed, s.Hits, s.Misses, 100*s.HitRate(),
		100*s.Utilization(), s.AvgQueueWait())
}

// e17Observability profiles the simulated machine over time instead of
// end-of-run aggregates: peak in-flight messages, peak link backlog, and
// peak per-cycle link utilization of the divide-and-conquer wave on the
// Monien host, with the invariant audit attached throughout.
func e17Observability() {
	header("E17 — observability: per-cycle profile of the D&C wave on the Monien host",
		"r", "n", "cycles", "peak inflight", "peak backlog", "peak util", "mean util", "audit")
	for r := 3; r <= min(*maxR, 7); r++ {
		n := int(xtreesim.Capacity(r))
		tr, err := bintree.Generate(bintree.FamilyComplete, n, rng(int64(r)))
		check(err)
		res, err := core.EmbedXTree(tr, core.DefaultOptions())
		check(err)
		audit := netsim.NewLinkAudit()
		ts := netsim.NewTimeSeries()
		cfg := netsim.OnXTree(res.Host, res.Assignment)
		cfg.Observers = []netsim.Observer{audit, ts}
		sim, err := netsim.Run(cfg, netsim.NewDivideConquer(tr, 1))
		check(err)
		peakBacklog, hops := 0, 0
		for _, smp := range ts.Samples {
			if smp.QueuedLinks > peakBacklog {
				peakBacklog = smp.QueuedLinks
			}
			hops += smp.Hops
		}
		meanUtil := 0.0
		if len(ts.Samples) > 0 && ts.Samples[0].Links > 0 {
			meanUtil = float64(hops) / float64(len(ts.Samples)*ts.Samples[0].Links)
		}
		auditCell := "ok"
		if err := audit.Err(); err != nil {
			auditCell = fmt.Sprintf("FAIL (%d)", audit.Count())
		}
		row(r, n, sim.Cycles, ts.PeakInflight(), peakBacklog,
			fmt.Sprintf("%.2f", ts.PeakUtilization()),
			fmt.Sprintf("%.3f", meanUtil), auditCell)
	}
}
