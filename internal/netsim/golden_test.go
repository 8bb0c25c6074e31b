package netsim

// golden_test.go pins the simulator's exact behaviour.  Every case runs
// one workload on one host under one placement, fault plan and cycle cap,
// and hashes what came out — the Result, the error text and the JSONL
// event stream — so a change to any counter, event or event order shows
// up as a diff.  Regenerate (only for an intended change of the
// simulator's output) with:
//
//	go test ./internal/netsim/ -run TestSimGolden -update
import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xtreesim/internal/bintree"
	"xtreesim/internal/core"
	"xtreesim/internal/graph"
	"xtreesim/internal/xtree"
)

var update = flag.Bool("update", false, "rewrite golden files")

const simGoldenFile = "sim_golden.txt"

// goldenHost is one host of the golden matrix with the router it runs
// under: nil routes by the built-in rule for the host.
type goldenHost struct {
	name string
	g    *graph.Graph
	next func(cur, dst int32) int32
}

// goldenHosts are four 31-vertex hosts, one per routing path: X(4) routed
// by the V² tables, a random tree routed by the tree router, the same tree
// relabelled so that its vertex 0, where the tree router roots itself, is
// not the tree's root, and X(4) routed by Config.NextHop.
func goldenHosts(t *testing.T) []goldenHost {
	t.Helper()
	x := xtree.New(4)
	tree, err := bintree.Generate(bintree.FamilyRandom, x.AsGraph().N(), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	const relabelSeed = 7 // relabel's permutation moves the root off vertex 0
	if rand.New(rand.NewSource(relabelSeed)).Perm(tree.N())[tree.Root()] == 0 {
		t.Fatal("relabelled host keeps the tree's root at vertex 0")
	}
	return []goldenHost{
		{"xtree", x.AsGraph(), nil},
		{"tree", tree.AsGraph(), nil},
		{"relabel", relabel(tree.AsGraph(), rand.New(rand.NewSource(relabelSeed))), nil},
		{"nexthop", x.AsGraph(), xtreeNextHop(x)},
	}
}

// goldenPlacements map the guest's n processes onto v host vertices: by
// index, scattered (multi-hop routes, so Phase 1 forwards), scattered with
// every third guest joined to its parent (co-located pairs through memory
// queues), all on one vertex, the Theorem 1 embed into X(4), and at
// random.
func goldenPlacements(t *testing.T, guest *bintree.Tree, v int) []struct {
	name  string
	place []int32
} {
	t.Helper()
	n := guest.N()
	index, scatter, pairs, hub, random := make([]int32, n), make([]int32, n), make([]int32, n),
		make([]int32, n), make([]int32, n)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < n; i++ {
		index[i] = int32(i % v)
		scatter[i] = int32(i * 7 % v)
		pairs[i] = scatter[i]
		if i > 0 && i%3 == 0 {
			pairs[i] = pairs[(i-1)/2]
		}
		hub[i] = int32(v / 2)
		random[i] = int32(rng.Intn(v))
	}
	emb, err := core.EmbedXTree(guest, core.Options{Height: 4})
	if err != nil {
		t.Fatal(err)
	}
	embed := make([]int32, n)
	for i, a := range emb.Assignment {
		embed[i] = int32(a.ID())
	}
	return []struct {
		name  string
		place []int32
	}{{"index", index}, {"scatter", scatter}, {"pairs", pairs}, {"hub", hub}, {"embed", embed}, {"random", random}}
}

// goldenPlans are the fault plans, built per host because kills must name
// its edges: none; kills, among them a vertex dead at boot and repeated
// entries (the dead vertex's own link, a link listed twice, once
// reversed, and the dead vertex again) that must fire nothing; drops and
// corruption; and all of them combined.
func goldenPlans(g *graph.Graph) []struct {
	name string
	plan *FaultPlan
} {
	edges := g.Edges()
	link := func(i, cycle int) LinkKill {
		e := edges[i%len(edges)]
		return LinkKill{U: int32(e[0]), V: int32(e[1]), Cycle: cycle}
	}
	const boot = 30
	deadLink := LinkKill{U: boot, V: g.Neighbors(boot)[0], Cycle: 4}
	twice, reversed := link(3, 3), link(3, 5)
	reversed.U, reversed.V = reversed.V, reversed.U
	kills := &FaultPlan{Seed: 11,
		VertexKills: []VertexKill{{V: boot, Cycle: 0}, {V: 9, Cycle: 4}, {V: boot, Cycle: 6}},
		LinkKills:   []LinkKill{twice, deadLink, reversed, link(17, 2)}}
	return []struct {
		name string
		plan *FaultPlan
	}{
		{"none", nil},
		{"kills", kills},
		{"dropcorrupt", &FaultPlan{Seed: 42, DropProb: 0.05, CorruptProb: 0.05}},
		{"combined", &FaultPlan{Seed: 7, DropProb: 0.03, CorruptProb: 0.04, MaxRetries: 5, BackoffBase: 1,
			VertexKills: []VertexKill{{V: 21, Cycle: 5}, {V: boot, Cycle: 0}},
			LinkKills:   []LinkKill{link(5, 3), link(11, 8)}}},
	}
}

// simDigest hashes one run's observable output: its Result, its error
// text and its JSONL event stream.
func simDigest(res Result, err error, rec *TraceRecorder) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v\nerror %v\n", res, err)
	if werr := rec.WriteJSONL(h); werr != nil {
		panic(werr)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// TestSimGolden runs every workload on every golden host, placement and
// fault plan, uncapped and capped at 7 cycles, and compares the digests
// line by line against testdata/sim_golden.txt: 768 runs.  The 192 runs
// on X(4) under the tables and under Config.NextHop must also agree.
func TestSimGolden(t *testing.T) {
	guest, err := bintree.Generate(bintree.FamilyRandom, 48, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	workloads := []struct {
		name string
		mk   func() Workload
	}{
		{"divide", func() Workload { return NewDivideConquer(guest, 2) }},
		{"broadcast", func() Workload { return NewBroadcast(guest) }},
		{"scan", func() Workload { return NewScan(guest) }},
		{"exchange", func() Workload { return NewExchange(guest, 2) }},
	}
	var got bytes.Buffer
	for _, h := range goldenHosts(t) {
		for _, p := range goldenPlacements(t, guest, h.g.N()) {
			for _, wl := range workloads {
				for _, f := range goldenPlans(h.g) {
					for _, maxCycles := range []int{0, 7} {
						rec := NewTraceRecorder()
						cfg := Config{Host: h.g, Place: p.place, NextHop: h.next, Faults: f.plan,
							MaxCycles: maxCycles, Observers: []Observer{rec}}
						res, err := RunContext(context.Background(), cfg, wl.mk())
						fmt.Fprintf(&got, "%s/%s/%s/%s/cap%d %s\n", h.name, p.name, wl.name, f.name, maxCycles,
							simDigest(res, err, rec))
					}
				}
			}
		}
	}
	sameRunsOnXTree(t, goldenLines(got.Bytes()))
	path := filepath.Join("testdata", simGoldenFile)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	wantLines, gotLines := goldenLines(want), goldenLines(got.Bytes())
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden has %d cases, the run produced %d", len(wantLines), len(gotLines))
	}
	drift := 0
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			drift++
			if drift <= 10 {
				t.Errorf("run drifted from golden:\ngot:  %s\nwant: %s", gotLines[i], wantLines[i])
			}
		}
	}
	if drift > 10 {
		t.Errorf("%d of %d cases drifted in total", drift, len(gotLines))
	}
}

// sameRunsOnXTree requires the golden's two X(4) hosts to give equal
// digests case by case: the tables and the closed-form router (OnXTree's)
// pick the same hop on every pair, so every run is the same.  It stops the
// test, so -update never writes a golden file in which they differ.
func sameRunsOnXTree(t *testing.T, lines []string) {
	t.Helper()
	tables := map[string]string{}
	compared := 0
	for _, line := range lines {
		name, digest, _ := strings.Cut(line, " ")
		host, run, _ := strings.Cut(name, "/")
		switch host {
		case "xtree":
			tables[run] = digest
		case "nexthop":
			compared++
			if want, ok := tables[run]; !ok || digest != want {
				t.Fatalf("%s: closed-form run %s, table run %q", run, digest, want)
			}
		}
	}
	if compared == 0 || compared != len(tables) {
		t.Fatalf("compared %d closed-form runs with %d table runs", compared, len(tables))
	}
}

func goldenLines(b []byte) []string {
	var out []string
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			out = append(out, s)
		}
	}
	return out
}
