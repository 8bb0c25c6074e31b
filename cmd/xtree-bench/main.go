// Command xtree-bench regenerates the experiment tables of EXPERIMENTS.md:
// one experiment per theorem/lemma/figure claim of the paper (see
// DESIGN.md §4 for the index).  Output is GitHub-flavored Markdown so the
// tables can be pasted into EXPERIMENTS.md verbatim.
//
// Usage:
//
//	xtree-bench -exp all          # every experiment
//	xtree-bench -exp e1 -maxr 10  # Theorem 1 sweep up to X(10)
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"

	"xtreesim/internal/buildinfo"
)

var (
	maxR      = flag.Int("maxr", 9, "largest X-tree height in the sweeps")
	seeds     = flag.Int("seeds", 5, "random seeds per configuration")
	auditRuns = flag.Bool("audit", false, "attach the LinkAudit invariant checker to every simulator run (a violation aborts)")
	tracePath = flag.String("trace", "", "write a Chrome trace of the first simulator run to this file")
)

// experiments lists every runner in its `-exp all` order.  E18, E21 and
// E23 are retired (see EXPERIMENTS.md).
var experiments = []struct {
	id  string
	run func()
}{
	{"e1", e1Theorem1}, {"e2", e2Injective}, {"e3", e3Hypercube},
	{"e4", e4Universal}, {"e5", e5Lemmas}, {"e6", e6Lemma3},
	{"e7", e7Figures}, {"e8", e8Imbalance}, {"e9", e9Baselines},
	{"e10", e10Simulation}, {"e11", e11Ablation}, {"e12", e12Congestion},
	{"e13", e13Scaling}, {"e14", e14Butterfly}, {"e15", e15Fibonacci},
	{"e16", e16FaultSweep}, {"e17", e17Observability}, {"e19", e19PhaseBreakdown},
	{"e20", e20EmbedPerf}, {"e22", e22DistScaling},
}

func main() {
	exp := flag.String("exp", "all", "experiment id (e1..e22; e18, e21 and e23 are retired) or 'all'")
	version := flag.Bool("version", false, "print build info and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version())
		return
	}
	id := strings.ToLower(*exp)
	ran := false
	for _, e := range experiments {
		if id == "all" || id == e.id {
			e.run()
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func header(title string, cols ...string) {
	fmt.Printf("\n### %s\n\n", title)
	fmt.Println("| " + strings.Join(cols, " | ") + " |")
	sep := make([]string, len(cols))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Println("| " + strings.Join(sep, " | ") + " |")
}

func row(cells ...interface{}) {
	parts := make([]string, len(cells))
	for i, c := range cells {
		parts[i] = fmt.Sprint(c)
	}
	fmt.Println("| " + strings.Join(parts, " | ") + " |")
}
