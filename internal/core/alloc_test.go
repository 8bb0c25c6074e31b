package core

import (
	"context"
	"slices"
	"testing"
	"time"

	"xtreesim/internal/bintree"
	"xtreesim/internal/race"
)

// embedAllocBudgets are the per-embed allocation ceilings
// TestEmbedAllocBudget enforces on the default-option hot path, at r = 7
// (4080 nodes).  The seed implementation of the embedder spent ~49,900
// allocations per embed on the random guest and the arena rewrite ~3,100.
// Since the attachment index became linked lists, separator rooting kept
// guest-indexed arrays, the lemmas built their sets as sorted slices, and
// one-node lays and the initial 16 built their remnants from the guest's
// subtree intervals instead of flooding them, a random guest costs 93 and
// a path 1,470: the path makes hundreds of Lemma 2 splits, each with its
// own small sets and its flood, and under the race detector more of those
// sets reach the heap (random 98, path 1,546).  The budgets sit just
// above those counts, so a regression reintroducing per-round churn fails
// loudly rather than melting away in benchmark noise.
var embedAllocBudgets = []struct {
	family     bintree.Family
	budget     float64
	raceBudget float64
}{{bintree.FamilyRandom, 100, 105}, {bintree.FamilyPath, 1600, 1700}}

// BenchmarkEmbed is the canonical embedder benchmark the perf CI gate
// replays (experiment E20 writes its numbers to BENCH_embed.json): one
// full default-option embed of the 4080-node random guest into X(7).
func BenchmarkEmbed(b *testing.B) {
	tr := mustBenchTree(b, bintree.FamilyRandom, int(Capacity(7)), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EmbedXTree(tr, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathScaling is the scaling gate of make embed-bench: a path
// guest's embed time per node at X(11) (65,520 nodes) over that at X(8)
// (8,176 nodes), measured in one process.  Each of at least seven rounds
// times one sample of each size back to back; a sample embeds about the
// same number of nodes at both sizes, eight X(8) paths against one X(11)
// path, so both pay the garbage collector for about the same allocation
// volume.  The gate reads the median of the rounds' ratios: the two
// samples of a round see the same load on a shared host, so their ratio
// holds steadier than a ratio of two best times taken moments apart.
// On a path the Lemma 2 splits of each round root about every component
// once and flood its remnants, so the work per node grows with the height
// (1.37× from X(8) to X(11)) and the ratio reads about 1.2–1.4 on a 2-CPU
// host.  A per-action cost that grows with the guest, as the quadratic
// separator rooting before did (3.7), fails the benchmark above 1.5.  It
// is a ratio, not a wall-clock bound, so it holds on any machine.  Run it
// with
//
//	go test -run '^$' -bench PathScaling -benchtime 1x ./internal/core
func BenchmarkPathScaling(b *testing.B) {
	sizes := []struct {
		tr     *bintree.Tree
		embeds int
	}{{bintree.Path(int(Capacity(8))), 8}, {bintree.Path(int(Capacity(11))), 1}}
	var ratios []float64
	var ns [2]float64
	for run := 0; run < max(b.N, 7); run++ {
		for i, sz := range sizes {
			start := time.Now()
			for k := 0; k < sz.embeds; k++ {
				if _, err := EmbedXTree(sz.tr, DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
			ns[i] = float64(time.Since(start).Nanoseconds()) / float64(sz.embeds*sz.tr.N())
		}
		ratios = append(ratios, ns[1]/ns[0])
	}
	slices.Sort(ratios)
	ratio := ratios[len(ratios)/2]
	b.ReportMetric(ratio, "X11/X8")
	if ratio > 1.5 {
		b.Fatalf("a path's embed time per node at X(11) over X(8) reads %.2f in the median round, above 1.5 (rounds: %.2f)",
			ratio, ratios)
	}
}

// TestEmbedAllocBudget gates the zero-alloc work with testing.AllocsPerRun
// instead of a benchmark diff: the count is exact (no timer noise), runs
// in the ordinary test suite, and fails the build the moment the hot
// path regresses past the budget.
func TestEmbedAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget needs full embeds")
	}
	for _, c := range embedAllocBudgets {
		tr, err := bintree.Generate(c.family, int(Capacity(7)), randSource(1))
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := EmbedXTree(tr, DefaultOptions()); err != nil {
				t.Fatal(err)
			}
		})
		budget := c.budget
		if race.Enabled {
			budget = c.raceBudget
		}
		if allocs > budget {
			t.Errorf("default-option embed of a %s guest costs %.0f allocs, budget %.0f — the embedder's buffers are leaking churn",
				c.family, allocs, budget)
		}
		t.Logf("%s embed allocs/run: %.0f (budget %.0f)", c.family, allocs, budget)
	}
}

// TestXTreeWireMetricsAllocs gates the numbers wire answers carry on the
// 4080-node embedding: the X-tree metrics (dilation and average dilation,
// one DilationStats pass, which the engine runs once per cache entry and
// the injective answer per request), whose closed-form distance allocates
// nothing, so the only allocations left are the Embedding and its id map;
// and HypercubeDilationContext, the hypercube answer's one pass over the
// guest edges, which allocates nothing.
func TestXTreeWireMetricsAllocs(t *testing.T) {
	tr := mustRandomTree(t, int(Capacity(7)), 1)
	res, err := EmbedXTree(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		dil, avg := res.Embedding().DilationStats()
		if dil > 3 || avg <= 0 {
			t.Fatal("wire metrics out of Theorem 1's bounds")
		}
	})
	if allocs > 2 {
		t.Errorf("X-tree wire metrics cost %.0f allocs, want at most 2", allocs)
	}
	t.Logf("X-tree wire metrics at n=%d: %.0f allocs", tr.N(), allocs)

	ctx := context.Background()
	allocs = testing.AllocsPerRun(5, func() {
		dil, avg := HypercubeDilationContext(ctx, res)
		if dil > 4 || avg <= 0 {
			t.Fatal("hypercube wire metrics out of Theorem 3's bounds")
		}
	})
	if allocs > 0 {
		t.Errorf("hypercube wire metrics cost %.0f allocs, want 0", allocs)
	}
	t.Logf("hypercube wire metrics at n=%d: %.0f allocs", tr.N(), allocs)
}

func mustBenchTree(b *testing.B, f bintree.Family, n int, seed int64) *bintree.Tree {
	b.Helper()
	tr, err := bintree.Generate(f, n, randSource(seed))
	if err != nil {
		b.Fatal(err)
	}
	return tr
}
