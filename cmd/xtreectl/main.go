// Command xtreectl is the swiss-army knife for the library: generate guest
// trees, run the embeddings, verify the paper's bounds, and export hosts
// and guests as Graphviz DOT.
//
// Usage:
//
//	xtreectl gen    -family random -n 1008 -seed 1        # print tree encoding
//	xtreectl embed  -family random -n 1008 [-mode xtree|injective|hypercube]
//	xtreectl verify -family path -n 4080                  # exit 1 on bound violation
//	xtreectl dot    -what xtree -r 3                      # Figure 1 as DOT
//	xtreectl nset   -vertex 0101 -r 6                     # Figure 2 neighborhood
//	xtreectl watch  -addr http://host:8080 [session-id]   # live view of a streaming simulate
package main

import (
	"flag"
	"fmt"
	"os"

	"xtreesim"

	"xtreesim/internal/bintree"
	"xtreesim/internal/bitstr"
	"xtreesim/internal/viz"
	"xtreesim/internal/xtree"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		cmdGen(os.Args[2:])
	case "embed":
		cmdEmbed(os.Args[2:])
	case "verify":
		cmdVerify(os.Args[2:])
	case "check":
		cmdCheck(os.Args[2:])
	case "dot":
		cmdDot(os.Args[2:])
	case "nset":
		cmdNSet(os.Args[2:])
	case "svg":
		cmdSVG(os.Args[2:])
	case "watch":
		cmdWatch(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: xtreectl {gen|embed|verify|check|dot|nset|svg|watch} [flags]")
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "xtreectl:", err)
	os.Exit(1)
}

func treeFlags(fs *flag.FlagSet) (family *string, n *int, seed *int64, in *string) {
	family = fs.String("family", "random", "guest family (complete|path|random|bst|caterpillar|broom|zigzag)")
	n = fs.Int("n", 1008, "guest size")
	seed = fs.Int64("seed", 1, "generator seed")
	in = fs.String("in", "", "read tree from file (Encode format) instead of generating")
	return
}

func loadTree(family string, n int, seed int64, in string) *xtreesim.Tree {
	if in != "" {
		data, err := os.ReadFile(in)
		if err != nil {
			fail(err)
		}
		t, err := bintree.Decode(string(data))
		if err != nil {
			fail(err)
		}
		return t
	}
	t, err := xtreesim.GenerateTree(xtreesim.Family(family), n, seed)
	if err != nil {
		fail(err)
	}
	return t
}

func cmdGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	family, n, seed, in := treeFlags(fs)
	fs.Parse(args)
	t := loadTree(*family, *n, *seed, *in)
	fmt.Println(t.Encode())
}

func cmdEmbed(args []string) {
	fs := flag.NewFlagSet("embed", flag.ExitOnError)
	family, n, seed, in := treeFlags(fs)
	mode := fs.String("mode", "xtree", "xtree|injective|hypercube")
	showMap := fs.Bool("map", false, "print the full node -> vertex assignment")
	out := fs.String("o", "", "save the embedding to a file (xtree mode only)")
	fs.Parse(args)
	t := loadTree(*family, *n, *seed, *in)
	res, err := xtreesim.Embed(t)
	if err != nil {
		fail(err)
	}
	switch *mode {
	case "xtree":
		fmt.Println(res.Embedding().Summarize())
		fmt.Printf("stats: %+v\n", res.Stats)
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fail(err)
			}
			if err := xtreesim.WriteResult(f, res); err != nil {
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
		}
		if *showMap {
			for v, a := range res.Assignment {
				fmt.Printf("%d\t%v\n", v, a)
			}
		}
	case "injective":
		inj, err := xtreesim.EmbedInjective(res)
		if err != nil {
			fail(err)
		}
		fmt.Println(inj.Embedding().Summarize())
	case "hypercube":
		hc := xtreesim.EmbedHypercube(res)
		fmt.Println(hc.Embedding().Summarize())
	default:
		fail(fmt.Errorf("unknown mode %q", *mode))
	}
}

func cmdVerify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	family, n, seed, in := treeFlags(fs)
	fs.Parse(args)
	t := loadTree(*family, *n, *seed, *in)
	res, err := xtreesim.Embed(t, xtreesim.WithStrict())
	if err != nil {
		fail(err)
	}
	if err := xtreesim.Verify(res); err != nil {
		fail(err)
	}
	fmt.Printf("ok: n=%d dilation=%d load=%d host=X(%d)\n",
		t.N(), res.Dilation(), res.MaxLoad(), res.Host.Height())
}

// cmdCheck re-validates a saved embedding file against the paper's
// invariants, independently of the code that produced it.
func cmdCheck(args []string) {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	in := fs.String("in", "", "embedding file produced by 'embed -o'")
	fs.Parse(args)
	if *in == "" {
		fail(fmt.Errorf("check needs -in <file>"))
	}
	f, err := os.Open(*in)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	res, err := xtreesim.ReadResult(f)
	if err != nil {
		fail(err)
	}
	if err := xtreesim.CheckInvariants(res); err != nil {
		fail(err)
	}
	fmt.Printf("ok: n=%d dilation=%d load=%d host=X(%d)\n",
		res.Guest.N(), res.Dilation(), res.Embedding().MaxLoad(), res.Host.Height())
}

func cmdDot(args []string) {
	fs := flag.NewFlagSet("dot", flag.ExitOnError)
	what := fs.String("what", "xtree", "xtree|tree|universal")
	r := fs.Int("r", 3, "host height")
	family, n, seed, in := treeFlags(fs)
	fs.Parse(args)
	switch *what {
	case "xtree":
		x := xtree.New(*r)
		err := x.AsGraph().WriteDOT(os.Stdout, fmt.Sprintf("X(%d)", *r), func(id int) string {
			return bitstr.FromID(int64(id)).String()
		})
		if err != nil {
			fail(err)
		}
	case "tree":
		t := loadTree(*family, *n, *seed, *in)
		if err := t.AsGraph().WriteDOT(os.Stdout, "guest", nil); err != nil {
			fail(err)
		}
	case "universal":
		u := xtreesim.UniversalForHeight(*r)
		if err := u.G.WriteDOT(os.Stdout, fmt.Sprintf("G over X(%d)", *r), nil); err != nil {
			fail(err)
		}
	default:
		fail(fmt.Errorf("unknown -what %q", *what))
	}
}

// cmdSVG renders Figure 1 (the X-tree), Figure 2 (an N-neighborhood) or
// an embedding's load map as SVG on stdout.
func cmdSVG(args []string) {
	fs := flag.NewFlagSet("svg", flag.ExitOnError)
	what := fs.String("what", "xtree", "xtree|nset|embedding")
	r := fs.Int("r", 3, "host height (xtree/nset)")
	vertex := fs.String("vertex", "01", "center vertex for -what nset")
	labels := fs.Bool("labels", true, "draw vertex labels")
	family, n, seed, in := treeFlags(fs)
	fs.Parse(args)
	switch *what {
	case "xtree":
		x := xtree.New(*r)
		if err := viz.WriteSVG(os.Stdout, x, viz.Options{Labels: *labels}); err != nil {
			fail(err)
		}
	case "nset":
		x := xtree.New(*r)
		a, err := bitstr.Parse(*vertex)
		if err != nil {
			fail(err)
		}
		if !x.Contains(a) {
			fail(fmt.Errorf("%v not in X(%d)", a, *r))
		}
		opts := viz.Options{Labels: *labels, Highlight: viz.HighlightN(x, a)}
		if err := viz.WriteSVG(os.Stdout, x, opts); err != nil {
			fail(err)
		}
	case "embedding":
		t := loadTree(*family, *n, *seed, *in)
		res, err := xtreesim.Embed(t)
		if err != nil {
			fail(err)
		}
		opts := viz.Options{Labels: *labels, Loads: viz.LoadsOf(res.Assignment)}
		if err := viz.WriteSVG(os.Stdout, res.Host, opts); err != nil {
			fail(err)
		}
	default:
		fail(fmt.Errorf("unknown -what %q", *what))
	}
}

func cmdNSet(args []string) {
	fs := flag.NewFlagSet("nset", flag.ExitOnError)
	vertex := fs.String("vertex", "01", "X-tree vertex as a binary string (ε for the root)")
	r := fs.Int("r", 6, "host height")
	fs.Parse(args)
	a, err := bitstr.Parse(*vertex)
	if err != nil {
		fail(err)
	}
	x := xtree.New(*r)
	if !x.Contains(a) {
		fail(fmt.Errorf("%v not in X(%d)", a, *r))
	}
	fmt.Printf("N(%v) in X(%d):\n", a, *r)
	for _, b := range x.NSet(a) {
		fmt.Printf("  %-12v level=%d dist=%d\n", b, b.Level, x.Distance(a, b))
	}
	rev := 0
	for _, b := range x.ReverseN(a) {
		if !x.InN(a, b) {
			fmt.Printf("  %-12v (reverse only)\n", b)
			rev++
		}
	}
	fmt.Printf("|N(a)-{a}| = %d, reverse-only = %d\n", len(x.NSet(a))-1, rev)
}
