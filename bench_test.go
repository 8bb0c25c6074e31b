package xtreesim_test

// One benchmark per experiment table of EXPERIMENTS.md (E1–E10); run with
//
//	go test -bench=. -benchmem
//
// The per-op numbers measure the cost of regenerating each claim:
// embedding construction (E1), the derived embeddings (E2–E3), the
// universal graph (E4), the separator lemmas (E5), the hypercube maps
// (E6), the N-sets (E7), the instrumented worst case (E8), the baselines
// (E9) and the machine simulation (E10).

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"xtreesim"

	"xtreesim/internal/bintree"
	"xtreesim/internal/bitstr"
	"xtreesim/internal/hypercube"
	"xtreesim/internal/separator"
	"xtreesim/internal/xtree"
)

func mustTree(b *testing.B, f xtreesim.Family, n int, seed int64) *xtreesim.Tree {
	b.Helper()
	t, err := xtreesim.GenerateTree(f, n, seed)
	if err != nil {
		b.Fatal(err)
	}
	return t
}

func mustEmbed(b *testing.B, t *xtreesim.Tree) *xtreesim.Result {
	b.Helper()
	res, err := xtreesim.Embed(t)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTheorem1 regenerates E1: algorithm X-TREE on every family.
func BenchmarkTheorem1(b *testing.B) {
	for _, f := range xtreesim.Families {
		for _, r := range []int{5, 7, 9} {
			n := int(xtreesim.Capacity(r))
			b.Run(fmt.Sprintf("%s/r=%d", f, r), func(b *testing.B) {
				tree := mustTree(b, f, n, 1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res := mustEmbed(b, tree)
					if res.MaxLoad() > xtreesim.LoadTarget {
						b.Fatalf("load %d", res.MaxLoad())
					}
				}
			})
		}
	}
}

// BenchmarkTheorem2 regenerates E2: the injective derivation.
func BenchmarkTheorem2(b *testing.B) {
	tree := mustTree(b, xtreesim.FamilyRandom, int(xtreesim.Capacity(7)), 2)
	res := mustEmbed(b, tree)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inj, err := xtreesim.EmbedInjective(res)
		if err != nil {
			b.Fatal(err)
		}
		_ = inj
	}
}

// BenchmarkTheorem3 regenerates E3: the hypercube composition.
func BenchmarkTheorem3(b *testing.B) {
	tree := mustTree(b, xtreesim.FamilyRandom, int(xtreesim.Capacity(7)), 3)
	res := mustEmbed(b, tree)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hc := xtreesim.EmbedHypercube(res)
		_ = hc
	}
}

// BenchmarkTheorem4 regenerates E4: universal-graph construction and one
// spanning-tree embedding.
func BenchmarkTheorem4(b *testing.B) {
	b.Run("build/G_496", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			u, err := xtreesim.NewUniversalGraph(496)
			if err != nil {
				b.Fatal(err)
			}
			if u.MaxDegree() > xtreesim.UniversalDegreeBound {
				b.Fatal("degree bound broken")
			}
		}
	})
	b.Run("embed/G_496", func(b *testing.B) {
		u, err := xtreesim.NewUniversalGraph(496)
		if err != nil {
			b.Fatal(err)
		}
		tree := mustTree(b, xtreesim.FamilyRandom, 496, 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := u.Embed(tree); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLemma12 regenerates E5: one separator split each.
func BenchmarkLemma12(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	tr := bintree.RandomAttachment(4096, rng)
	rt := separator.Build(tr.Neighbors, tr.Root(), nil)
	b.Run("lemma1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := separator.Lemma1(rt, 2048, 1000); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lemma2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := separator.Lemma2(rt, 2048, 1000); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLemma3 regenerates E6: the χ map and its inverse.
func BenchmarkLemma3(b *testing.B) {
	const r = 20
	a := bitstr.MustParse("01011010010110100101")
	b.Run("chi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if hypercube.Chi(a, r) == 0 {
				b.Fatal("zero image")
			}
		}
	})
	b.Run("chi-inverse", func(b *testing.B) {
		img := hypercube.Chi(a, r)
		for i := 0; i < b.N; i++ {
			if _, ok := hypercube.ChiInverseLevel(img, r); !ok {
				b.Fatal("inverse failed")
			}
		}
	})
}

// BenchmarkFigure2 regenerates E7: N-set enumeration and membership.
func BenchmarkFigure2(b *testing.B) {
	x := xtree.New(30)
	a := bitstr.MustParse("010110100101101001011")
	s, _ := a.Successor()
	b.Run("nset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(x.NSet(a)) == 0 {
				b.Fatal("empty")
			}
		}
	})
	b.Run("inn", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !x.InN(a, s) {
				b.Fatal("neighbor not in N")
			}
		}
	})
}

// BenchmarkImbalanceWorstCase regenerates E8: the path guest, whose
// initial imbalance is maximal.
func BenchmarkImbalanceWorstCase(b *testing.B) {
	tree := mustTree(b, xtreesim.FamilyPath, int(xtreesim.Capacity(8)), 0)
	for i := 0; i < b.N; i++ {
		res, err := xtreesim.Embed(tree, xtreesim.WithImbalanceStats())
		if err != nil {
			b.Fatal(err)
		}
		if last := res.Stats.MaxImbalance[len(res.Stats.MaxImbalance)-1]; last > 1 {
			b.Fatalf("imbalance %d", last)
		}
	}
}

// BenchmarkBaselines regenerates E9: the packing baselines.
func BenchmarkBaselines(b *testing.B) {
	tree := mustTree(b, xtreesim.FamilyRandom, int(xtreesim.Capacity(7)), 9)
	b.Run("dfs-pack", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := xtreesim.Baseline(tree, xtreesim.MethodDFSPack); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bfs-pack", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := xtreesim.Baseline(tree, xtreesim.MethodBFSPack); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("monien", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = mustEmbed(b, tree)
		}
	})
}

// BenchmarkNetsim regenerates E10: one divide-and-conquer wave on the
// simulated X-tree machine.
func BenchmarkNetsim(b *testing.B) {
	tree := mustTree(b, xtreesim.FamilyComplete, int(xtreesim.Capacity(5)), 0)
	res := mustEmbed(b, tree)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := xtreesim.SimulateOnXTree(res, xtreesim.NewDivideConquer(tree, 1))
		if err != nil {
			b.Fatal(err)
		}
		if sim.Cycles == 0 {
			b.Fatal("empty run")
		}
	}
}

// BenchmarkEmbedBatch contrasts three ways of embedding the same batch
// of 64 random 1008-node guests: the serial loop, the worker-pool engine
// with caching disabled (pure parallel speedup — ≥ 2× expected on 4
// cores), and a cache-warm engine answering an isomorphic second pass by
// remapping alone (hit rate reported as hit%, expected 100).
func BenchmarkEmbedBatch(b *testing.B) {
	const batch = 64
	trees := make([]*xtreesim.Tree, batch)
	for i := range trees {
		trees[i] = mustTree(b, xtreesim.FamilyRandom, 1008, int64(i))
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, tr := range trees {
				mustEmbed(b, tr)
			}
		}
	})
	b.Run("engine", func(b *testing.B) {
		eng := xtreesim.NewEngine(xtreesim.EngineConfig{CacheSize: -1})
		defer eng.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, it := range eng.EmbedBatch(context.Background(), trees) {
				if it.Err != nil {
					b.Fatal(it.Err)
				}
			}
		}
	})
	b.Run("cached-isomorphic", func(b *testing.B) {
		eng := xtreesim.NewEngine(xtreesim.EngineConfig{CacheSize: 2 * batch})
		defer eng.Close()
		for _, it := range eng.EmbedBatch(context.Background(), trees) {
			if it.Err != nil {
				b.Fatal(it.Err)
			}
		}
		iso := make([]*xtreesim.Tree, batch)
		for i := range iso {
			iso[i] = relabelIso(b, trees[i], int64(1000+i))
		}
		warm := eng.Stats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, it := range eng.EmbedBatch(context.Background(), iso) {
				if it.Err != nil {
					b.Fatal(it.Err)
				}
			}
		}
		b.StopTimer()
		// Hit rate of the measured second passes alone, excluding the
		// warm-up misses.
		s := eng.Stats()
		hits, misses := s.Hits-warm.Hits, s.Misses-warm.Misses
		b.ReportMetric(float64(hits)/float64(hits+misses)*100, "hit%")
	})
}

// BenchmarkXTreeDistance measures the closed-form distance used by every
// dilation check, on a guest-edge-like near pair (distance 3, the most
// Theorem 1 allows an edge), a same-level pair a few hops apart, and a far
// pair across the root.
func BenchmarkXTreeDistance(b *testing.B) {
	x := xtree.New(30)
	a := bitstr.MustParse("010110100101101001011010011011")
	pairs := []struct {
		name string
		c    bitstr.Addr
	}{
		{"near", bitstr.MustParse("0101101001011010010110100111")},
		{"mid", bitstr.MustParse("010110100101101001011010010001")},
		{"far", bitstr.MustParse("1101101001011010010110100110")},
	}
	for _, p := range pairs {
		b.Run(p.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if x.Distance(a, p.c) <= 0 {
					b.Fatal("bad distance")
				}
			}
		})
	}
}
