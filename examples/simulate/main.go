// Command simulate runs the paper's motivating scenario end to end: a
// divide-and-conquer program written for a binary-tree machine executes on
// a simulated X-tree machine through (a) the Monien embedding and (b) a
// naive packing, and the makespans are compared against the ideal
// binary-tree machine.  The Monien embedding's slowdown stays a small
// constant; the naive packing's grows with the machine size.
package main

import (
	"fmt"
	"log"

	"xtreesim"

	"xtreesim/internal/netsim"
)

func main() {
	fmt.Println("divide-and-conquer on the simulated X-tree machine")
	fmt.Println("family=complete (latency-bound: the dilation shows), one wave per run")
	fmt.Printf("%8s %10s %10s %10s %12s %12s\n",
		"n", "ideal", "monien", "dfs-pack", "slow(monien)", "slow(dfs)")
	for r := 3; r <= 7; r++ {
		n := int(xtreesim.Capacity(r))
		tree, err := xtreesim.GenerateTree(xtreesim.FamilyComplete, n, 7)
		if err != nil {
			log.Fatal(err)
		}

		ideal, err := xtreesim.SimulateOnTree(tree, xtreesim.NewDivideConquer(tree, 1))
		if err != nil {
			log.Fatal(err)
		}

		res, err := xtreesim.Embed(tree)
		if err != nil {
			log.Fatal(err)
		}
		monien, err := xtreesim.SimulateOnXTree(res, xtreesim.NewDivideConquer(tree, 1))
		if err != nil {
			log.Fatal(err)
		}

		base, err := xtreesim.Baseline(tree, xtreesim.MethodDFSPack)
		if err != nil {
			log.Fatal(err)
		}
		dfs, err := xtreesim.Simulate(netsim.OnXTree(base.Host, base.Assignment),
			xtreesim.NewDivideConquer(tree, 1))
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("%8d %10d %10d %10d %12.2f %12.2f\n",
			n, ideal.Cycles, monien.Cycles, dfs.Cycles,
			float64(monien.Cycles)/float64(ideal.Cycles),
			float64(dfs.Cycles)/float64(ideal.Cycles))
	}

	fmt.Println("\npipelined waves (congestion test), n = 1008:")
	tree, _ := xtreesim.GenerateTree(xtreesim.FamilyRandom, 1008, 9)
	res, err := xtreesim.Embed(tree)
	if err != nil {
		log.Fatal(err)
	}
	for _, waves := range []int{1, 2, 4, 8} {
		ideal, err := xtreesim.SimulateOnTree(tree, xtreesim.NewDivideConquer(tree, waves))
		if err != nil {
			log.Fatal(err)
		}
		host, err := xtreesim.SimulateOnXTree(res, xtreesim.NewDivideConquer(tree, waves))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  waves=%d ideal=%d xtree=%d slowdown=%.2f maxqueue=%d\n",
			waves, ideal.Cycles, host.Cycles,
			float64(host.Cycles)/float64(ideal.Cycles), host.MaxQueue)
	}
}
