package main

// distbench.go is experiment E22: the partitioned distributed simulator
// (internal/distsim) against the unpartitioned run.  One fixed
// fault-injected divide-and-conquer run on the Monien host is executed
// through netsim.Run and then sharded over 1, 2, 4 and 8 epoch-barrier
// workers; every sharded run must reproduce the reference Result bit for
// bit, and the sweep records wall time plus the cross-shard message
// count to BENCH_dist.json so successive changes compare number against
// number.  netsim has one runner and netsim.Run is its one-shard case,
// so single_wall_ms and the partitions: 1 row time the same runner: the
// reference runs first and bare, the row through distsim with a LinkAudit
// attached as an observer under -audit.  On one or two CPUs the
// two barriers per cycle cost more than the shards' parallel work saves,
// which is why equality, not speedup, is the gate.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"xtreesim/internal/bintree"
	"xtreesim/internal/core"
	"xtreesim/internal/distsim"
	"xtreesim/internal/netsim"
)

var distBenchOut = flag.String("dist-out", "BENCH_dist.json", "e22: write the partition-scaling JSON here ('' disables)")

// distBenchPoint is one measured shard count in BENCH_dist.json.
type distBenchPoint struct {
	Partitions       int     `json:"partitions"`
	WallMS           float64 `json:"wall_ms"`
	Cycles           int     `json:"cycles"`
	Identical        bool    `json:"identical"`
	BoundaryMessages int     `json:"boundary_messages"`
	MaxShardHops     int     `json:"max_shard_hops"`
	MinShardHops     int     `json:"min_shard_hops"`
}

type distBenchFile struct {
	Bench  string `json:"bench"`
	Config struct {
		Seed         int64   `json:"seed"`
		NumCPU       int     `json:"num_cpu"`
		HostVertices int     `json:"host_vertices"`
		GuestN       int     `json:"guest_n"`
		Waves        int     `json:"waves"`
		DropProb     float64 `json:"drop_prob"`
		SingleWallMS float64 `json:"single_wall_ms"`
	} `json:"config"`
	Results []distBenchPoint `json:"results"`
}

func e22DistScaling() {
	const (
		seed  = 9
		waves = 4
		drop  = 0.02
	)
	header("E22 — partitioned distsim vs one shard (D&C + faults on the Monien host)",
		"partitions", "wall ms", "cycles", "identical", "boundary msgs", "shard hops min..max")

	n := int(core.Capacity(6))
	tr, err := bintree.Generate(bintree.FamilyComplete, n, rng(seed))
	check(err)
	res, err := core.EmbedXTree(tr, core.DefaultOptions())
	check(err)
	base := netsim.OnXTree(res.Host, res.Assignment)
	base.Faults = &netsim.FaultPlan{Seed: seed, DropProb: drop, CorruptProb: drop}

	singleStart := time.Now()
	ref, err := netsim.Run(base, netsim.NewDivideConquer(tr, waves))
	check(err)
	singleMS := float64(time.Since(singleStart).Microseconds()) / 1000

	out := distBenchFile{Bench: "dist"}
	out.Config.Seed = seed
	out.Config.NumCPU = runtime.NumCPU()
	out.Config.HostVertices = base.Host.N()
	out.Config.GuestN = n
	out.Config.Waves = waves
	out.Config.DropProb = drop
	out.Config.SingleWallMS = singleMS

	for _, parts := range []int{1, 2, 4, 8} {
		sim := base
		var audit *netsim.LinkAudit
		if *auditRuns {
			audit = netsim.NewLinkAudit()
			sim.Observers = []netsim.Observer{audit}
		}
		start := time.Now()
		dres, st, err := distsim.RunStats(context.Background(), distsim.Config{
			Sim:        sim,
			Partitions: parts,
			Partition:  distsim.XTreeSubtrees,
		}, netsim.NewDivideConquer(tr, waves))
		check(err)
		wall := float64(time.Since(start).Microseconds()) / 1000
		if audit != nil {
			check(audit.Err())
		}
		p := distBenchPoint{
			Partitions:       parts,
			WallMS:           wall,
			Cycles:           dres.Cycles,
			Identical:        reflect.DeepEqual(dres, ref),
			BoundaryMessages: st.BoundaryMessages,
		}
		for i, ps := range st.Partitions {
			if i == 0 || ps.Hops > p.MaxShardHops {
				p.MaxShardHops = ps.Hops
			}
			if i == 0 || ps.Hops < p.MinShardHops {
				p.MinShardHops = ps.Hops
			}
		}
		if !p.Identical {
			check(fmt.Errorf("e22: partitions=%d diverged from the one-shard result", parts))
		}
		out.Results = append(out.Results, p)
		row(parts, fmt.Sprintf("%.1f", p.WallMS), p.Cycles, p.Identical,
			p.BoundaryMessages, fmt.Sprintf("%d..%d", p.MinShardHops, p.MaxShardHops))
	}
	fmt.Printf("\none-shard reference (netsim.Run): %.1f ms over %d cycles (num_cpu=%d)\n",
		singleMS, ref.Cycles, out.Config.NumCPU)

	if *distBenchOut != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		check(err)
		check(os.WriteFile(*distBenchOut, append(data, '\n'), 0o644))
		fmt.Printf("wrote %s\n", *distBenchOut)
	}
}
