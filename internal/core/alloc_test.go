package core

import (
	"testing"

	"xtreesim/internal/bintree"
)

// embedAllocBudget is the per-embed allocation ceiling TestEmbedAllocBudget
// enforces on the default-option hot path (r = 7 random guest, 4080
// nodes).  The seed implementation of the embedder spent ~49900
// allocations per embed on this instance; the arena rewrite brought it
// to ~3300 (budget tables, attachment index, separator storage and BFS
// queues all reused across rounds), and the budget pins that an order of
// magnitude below the seed so a regression reintroducing per-round churn
// fails loudly rather than melting away in benchmark noise.  Headroom
// above the measured value covers run-to-run variation from slab refills
// and map growth, not a return of the churn.
const embedAllocBudget = 4500

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

// TestEmbedAllocBudget gates the zero-alloc work with testing.AllocsPerRun
// instead of a benchmark diff: the count is exact (no timer noise), runs
// in the ordinary test suite, and fails the build the moment the hot
// path regresses past the budget.
func TestEmbedAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget needs full embeds")
	}
	tr := mustRandomTree(t, int(Capacity(7)), 1)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := EmbedXTree(tr, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > embedAllocBudget {
		t.Errorf("default-option embed costs %.0f allocs, budget %d — the embedder's buffers are leaking churn",
			allocs, embedAllocBudget)
	}
	t.Logf("embed allocs/run: %.0f (budget %d)", allocs, embedAllocBudget)
}

// TestXTreeWireMetricsAllocs gates the metrics every X-tree response
// carries (the server's dilation and average dilation) on the 4080-node
// embedding: the closed-form distance allocates nothing, so the only
// allocations left are the Embedding and its id map.
func TestXTreeWireMetricsAllocs(t *testing.T) {
	tr := mustRandomTree(t, int(Capacity(7)), 1)
	res, err := EmbedXTree(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		emb := res.Embedding()
		if emb.DilationParallel() > 3 || emb.AverageDilation() <= 0 {
			t.Fatal("wire metrics out of Theorem 1's bounds")
		}
	})
	if allocs > 2 {
		t.Errorf("X-tree wire metrics cost %.0f allocs, want at most 2", allocs)
	}
}

func mustBenchTree(b *testing.B, f bintree.Family, n int, seed int64) *bintree.Tree {
	b.Helper()
	tr, err := bintree.Generate(f, n, randSource(seed))
	if err != nil {
		b.Fatal(err)
	}
	return tr
}
