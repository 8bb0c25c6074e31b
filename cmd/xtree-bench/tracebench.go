package main

// tracebench.go: E19 uses the span tracer to answer "where does the
// wall-clock go?" for the full embed+simulate pipeline — the phase
// breakdown the PR 5 observability work exists to expose.  One fully
// sampled trace per host height covers algorithm X-TREE (host build,
// ADJUST/SPLIT rounds with their Lemma 2 separator calls, the final
// pass) and a broadcast run on the simulated machine, whose simulate
// span carries the run's counters; shares come from the tracer's
// per-phase histograms, which survive ring overflow.

import (
	"context"
	"fmt"
	"runtime"

	"xtreesim/internal/bintree"
	"xtreesim/internal/core"
	"xtreesim/internal/metrics"
	"xtreesim/internal/netsim"
	"xtreesim/internal/trace"
)

// phaseSeconds sums one phase's recorded span durations.
func phaseSeconds(phases map[string]*metrics.Histogram, name string) float64 {
	if h, ok := phases[name]; ok {
		return h.Sum()
	}
	return 0
}

func fmtPct(frac float64) string { return fmt.Sprintf("%.1f%%", 100*frac) }

func e19PhaseBreakdown() {
	header(fmt.Sprintf("E19: traced phase breakdown of embed+simulate (random guests, broadcast workload, %d cores)", runtime.NumCPU()),
		"r", "n", "host-build %", "rounds %", "final-pass %", "simulate %",
		"separator % (within rounds)", "separator calls", "sim hops", "spans")
	for r := 2; r <= 5; r++ {
		n := int(core.Capacity(r))
		tr := trace.New(trace.Config{SampleRate: 1})
		ctx, root := tr.Root(context.Background(), "e19")

		tree, err := bintree.Generate(bintree.FamilyRandom, n, rng(int64(r)))
		check(err)
		res, err := core.EmbedXTreeContext(ctx, tree, core.DefaultOptions())
		check(err)

		sim := trace.FromContext(ctx).Child("simulate")
		place := make([]int32, tree.N())
		for v, a := range res.Assignment {
			place[v] = int32(a.ID())
		}
		simRes, err := netsim.Run(netsim.Config{Host: res.Host.AsGraph(), Place: place},
			netsim.NewBroadcast(tree))
		check(err)
		sim.SetAttr("cycles", int64(simRes.Cycles)).
			SetAttr("delivered", int64(simRes.Delivered)).
			SetAttr("hops", int64(simRes.HopsTotal)).
			End()
		root.End()

		// The hops column is read back from the exported simulate span,
		// so the table shows what the trace itself carries.
		var simHops int64
		for _, sd := range tr.Spans() {
			if sd.Name == "simulate" {
				simHops, _ = sd.Attrs.Get("hops")
			}
		}
		if simHops <= 0 {
			check(fmt.Errorf("e19: r=%d: the simulate span carries no hop count", r))
		}

		phases := tr.PhaseHistograms()
		hostBuild := phaseSeconds(phases, "embed.host-build")
		rounds := phaseSeconds(phases, "embed.round")
		finalPass := phaseSeconds(phases, "embed.final-pass")
		simulate := phaseSeconds(phases, "simulate")
		sep := phaseSeconds(phases, "embed.separator")
		sepCalls := int64(0)
		if h, ok := phases["embed.separator"]; ok {
			sepCalls = h.Count()
		}
		// The four top-level phases are disjoint; separator time is a
		// sub-phase of the rounds, reported against them.
		total := hostBuild + rounds + finalPass + simulate
		pct := func(v float64) string {
			if total == 0 {
				return "-"
			}
			return fmtPct(v / total)
		}
		sepPct := "-"
		if rounds > 0 {
			sepPct = fmtPct(sep / rounds)
		}
		row(r, n, pct(hostBuild), pct(rounds), pct(finalPass), pct(simulate),
			sepPct, sepCalls, simHops, tr.Recorded())
	}
}
