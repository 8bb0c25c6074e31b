// Command xtree-sim runs a tree workload on the simulated X-tree machine
// and reports the slowdown against the ideal binary-tree machine
// (experiment E10 of EXPERIMENTS.md).
//
// Usage:
//
//	xtree-sim -family complete -n 1008 -workload divide-conquer -waves 4 -placement monien
//	xtree-sim -family random -n 1008 -workload scan -partitions 4
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"xtreesim"

	"xtreesim/internal/netsim"
)

func main() {
	family := flag.String("family", "complete", "guest family")
	n := flag.Int("n", 1008, "guest size")
	seed := flag.Int64("seed", 1, "generator seed")
	workload := flag.String("workload", "divide-conquer", "divide-conquer|broadcast|exchange|scan")
	waves := flag.Int("waves", 1, "pipelined waves (divide-conquer) or rounds (exchange)")
	placement := flag.String("placement", "monien", "monien|dfs|bfs|random")
	partitions := flag.Int("partitions", 0, "shard the host simulation across this many epoch-barrier workers (0/1 = single-process; results are identical)")
	flag.Parse()
	if err := run(os.Stdout, *family, *n, *seed, *workload, *waves, *placement, *partitions); err != nil {
		log.Fatal(err)
	}
}

// run executes one simulation comparison and prints the report.
func run(w io.Writer, family string, n int, seed int64, workload string, waves int, placement string, partitions int) error {
	tree, err := xtreesim.GenerateTree(xtreesim.Family(family), n, seed)
	if err != nil {
		return err
	}
	mkWorkload := func() (xtreesim.Workload, error) {
		switch workload {
		case "divide-conquer":
			return xtreesim.NewDivideConquer(tree, waves), nil
		case "broadcast":
			return xtreesim.NewBroadcast(tree), nil
		case "exchange":
			return xtreesim.NewExchange(tree, waves), nil
		case "scan":
			return xtreesim.NewScan(tree), nil
		default:
			return nil, fmt.Errorf("unknown workload %q", workload)
		}
	}

	wl, err := mkWorkload()
	if err != nil {
		return err
	}
	ideal, err := xtreesim.SimulateOnTree(tree, wl)
	if err != nil {
		return err
	}

	var hostRes xtreesim.SimResult
	switch placement {
	case "monien":
		res, err := xtreesim.Embed(tree)
		if err != nil {
			return err
		}
		wl, err := mkWorkload()
		if err != nil {
			return err
		}
		hostRes, err = xtreesim.SimulateOnXTree(res, wl, xtreesim.WithPartitions(partitions))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "embedding: dilation=%d load=%d host=X(%d)\n",
			res.Dilation(), res.MaxLoad(), res.Host.Height())
	case "dfs", "bfs", "random":
		var (
			base *xtreesim.BaselineResult
			err  error
		)
		switch placement {
		case "dfs":
			base, err = xtreesim.Baseline(tree, xtreesim.MethodDFSPack)
		case "bfs":
			base, err = xtreesim.Baseline(tree, xtreesim.MethodBFSPack)
		default:
			base, err = xtreesim.Baseline(tree, xtreesim.MethodRandom, xtreesim.WithBaselineSeed(seed))
		}
		if err != nil {
			return err
		}
		wl, err := mkWorkload()
		if err != nil {
			return err
		}
		hostRes, err = xtreesim.Simulate(netsim.OnXTree(base.Host, base.Assignment), wl,
			xtreesim.WithPartitions(partitions))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "embedding: %s dilation=%d\n", base.Name, base.Embedding().Dilation())
	default:
		return fmt.Errorf("unknown placement %q", placement)
	}

	if partitions > 1 {
		fmt.Fprintf(w, "partitions: %d epoch-barrier shards (results identical to single-process)\n", partitions)
	}
	fmt.Fprintf(w, "ideal binary-tree machine : %d cycles\n", ideal.Cycles)
	fmt.Fprintf(w, "X-tree machine            : %d cycles\n", hostRes.Cycles)
	slow := 0.0
	if ideal.Cycles > 0 {
		slow = float64(hostRes.Cycles) / float64(ideal.Cycles)
	}
	fmt.Fprintf(w, "slowdown                  : %.2f\n", slow)
	fmt.Fprintf(w, "traffic: delivered=%d hops=%d maxlink=%d maxqueue=%d\n",
		hostRes.Delivered, hostRes.HopsTotal, hostRes.MaxLinkLoad, hostRes.MaxQueue)
	fmt.Fprintf(w, "latency cycles: p50=%d p99=%d max=%d\n",
		hostRes.LatencyP50, hostRes.LatencyP99, hostRes.LatencyMax)
	return nil
}
