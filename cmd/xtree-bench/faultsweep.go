package main

import (
	"fmt"

	"xtreesim"

	"xtreesim/internal/baseline"
	"xtreesim/internal/bintree"
	"xtreesim/internal/core"
	"xtreesim/internal/netsim"
)

// e16FaultSweep measures how the dilation-3 embedding's slowdown degrades
// as the network gets less perfect: per-hop drop probability rises from 0
// to 10% while three seeded link kills land mid-run, and every lost
// message rides the ack/retransmission layer (bounded retries,
// exponential backoff) with BFS rerouting around the dead links.  The
// slowdown baseline is the fault-free ideal binary-tree machine, so the
// columns show exactly how much of the paper's constant-slowdown promise
// survives each fault rate — for the Monien embedding and for dfs-pack.
func e16FaultSweep() {
	header("E16 — fault sweep: slowdown under drops + link kills (family = random)",
		"drop%", "slow(monien)", "slow(dfs)", "drops", "corrupt", "retransmits", "reroutes", "unreachable", "done")
	r := min(*maxR, 5)
	n := int(xtreesim.Capacity(r))
	tr, err := bintree.Generate(bintree.FamilyRandom, n, rng(16))
	check(err)
	ideal, err := simRun(netsim.Config{Host: tr.AsGraph(), Place: netsim.IdentityPlacement(n)},
		netsim.NewDivideConquer(tr, 1))
	check(err)

	res, err := core.EmbedXTree(tr, core.DefaultOptions())
	check(err)
	monienCfg := netsim.OnXTree(res.Host, res.Assignment)
	base := baseline.DFSPack(tr)
	dfsCfg := netsim.OnXTree(base.Host, base.Assignment) // the same optimal X(r) host

	// Three link kills, the same for both embeddings, picked from the
	// host edge list by a fixed seed so the sweep is reproducible.
	pick := rng(17)
	edges := monienCfg.Host.Edges()
	var kills []netsim.LinkKill
	for _, cycle := range []int{4, 8, 12} {
		e := edges[pick.Intn(len(edges))]
		kills = append(kills, netsim.LinkKill{U: int32(e[0]), V: int32(e[1]), Cycle: cycle})
	}

	for _, rate := range []float64{0, 0.005, 0.01, 0.02, 0.05, 0.1} {
		plan := &netsim.FaultPlan{
			Seed:        21,
			DropProb:    rate,
			CorruptProb: rate / 2,
			LinkKills:   kills,
			MaxRetries:  16,
		}
		monienCfg.Faults, dfsCfg.Faults = plan, plan
		monien, errM := simRun(monienCfg, netsim.NewDivideConquer(tr, 1))
		dfs, errD := simRun(dfsCfg, netsim.NewDivideConquer(tr, 1))
		row(fmt.Sprintf("%.1f", rate*100),
			fmt.Sprintf("%.2f", float64(monien.Cycles)/float64(ideal.Cycles)),
			fmt.Sprintf("%.2f", float64(dfs.Cycles)/float64(ideal.Cycles)),
			monien.Drops, monien.Corruptions, monien.Retransmits, monien.Reroutes, monien.Unreachable,
			errM == nil && errD == nil)
	}
}
