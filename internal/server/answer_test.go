package server

import (
	"context"
	"encoding/json"
	"io"
	"log"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"xtreesim/internal/bintree"
	"xtreesim/internal/core"
	"xtreesim/internal/engine"
	"xtreesim/internal/metrics"
)

// perRequestItem is the wire item as the server built it per request
// before the engine measured each cache entry once: the X-tree numbers
// from Embedding()'s DilationStats and Loads, the hypercube numbers from
// the composed χ∘δ assignment of EmbedHypercube, and the injective
// derivation.  It is the oracle embedItem is held to.  It also checks
// that the hypercube loads are the X-tree loads, that is, that χ is
// one-to-one on the vertices the guest uses.
func perRequestItem(t *testing.T, req *EmbedRequest, bi engine.BatchItem) EmbedItem {
	t.Helper()
	if bi.Err != nil {
		return EmbedItem{Index: bi.Index, Error: bi.Err.Error()}
	}
	res := bi.Result
	xemb := res.Embedding()
	if req.hostName() == HostHypercube {
		hr := core.EmbedHypercube(res)
		emb := hr.Embedding()
		if !slices.Equal(sortedLoads(emb), sortedLoads(xemb)) {
			t.Errorf("n=%d: the hypercube loads differ from the X-tree loads", res.Guest.N())
		}
		dil, avg := emb.DilationStats()
		return EmbedItem{Index: bi.Index, N: res.Guest.N(), Host: HostHypercube,
			HostVertices: hr.Host.NumVertices(), Height: hr.Host.Dim(), Dilation: dil, AvgDilation: avg,
			MaxLoad: emb.MaxLoad(), Expansion: emb.Expansion(), CacheHit: bi.CacheHit}
	}
	dil, avg := xemb.DilationStats()
	item := EmbedItem{Index: bi.Index, N: res.Guest.N(), Host: HostXTree,
		HostVertices: res.Host.NumVertices(), Height: res.Host.Height(), Dilation: dil, AvgDilation: avg,
		MaxLoad: xemb.MaxLoad(), Expansion: xemb.Expansion(), CacheHit: bi.CacheHit}
	if req.Injective {
		inj, err := core.EmbedInjective(res)
		if err != nil {
			item.Error = err.Error()
			return item
		}
		iemb := inj.Embedding()
		idil, iavg := iemb.DilationStats()
		item.Injective = &EmbedItem{Index: bi.Index, N: res.Guest.N(), Host: HostXTree,
			HostVertices: inj.Host.NumVertices(), Height: inj.Host.Height(), Dilation: idil,
			AvgDilation: iavg, MaxLoad: iemb.MaxLoad(), Expansion: iemb.Expansion()}
	}
	return item
}

// sortedLoads returns the embedding's per-vertex loads in ascending order.
func sortedLoads(e *metrics.Embedding) []int {
	var loads []int
	for _, l := range e.Loads() {
		loads = append(loads, l)
	}
	slices.Sort(loads)
	return loads
}

// isoCopy returns a copy of tr isomorphic to it: node v becomes perm[v]
// (v itself when perm is nil) and, when mirror is set, every node's
// children change sides.
func isoCopy(t *testing.T, tr *bintree.Tree, perm []int32, mirror bool) *bintree.Tree {
	t.Helper()
	id := func(v int32) int32 {
		if perm == nil {
			return v
		}
		return perm[v]
	}
	parent := make([]int32, tr.N())
	side := make([]byte, tr.N())
	for v := int32(0); v < int32(tr.N()); v++ {
		p := tr.Parent(v)
		if p == bintree.None {
			parent[id(v)] = bintree.None
			continue
		}
		parent[id(v)] = id(p)
		if (tr.Right(p) == v) != mirror {
			side[id(v)] = 1
		}
	}
	out, err := bintree.NewFromParents(parent, side)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestHitAnswersMatchPerRequestComputation holds the answers built from
// the engine's stored numbers to the per-request computation they
// replaced.  For every family (random and BST at a second seed too),
// n ∈ {1, 17, 1008, 1009, 4080}, and the default, strict and
// height-pinned profiles, the first request (a miss) and the hits on a
// relabelled, a mirrored and a decoded copy each answer perRequestItem
// of their own result, on the X-tree host and, under the default
// profile (the only one the other hosts accept), the hypercube host and
// the X-tree host with the injective derivation.
func TestHitAnswersMatchPerRequestComputation(t *testing.T) {
	s := New(Config{EngineConfig: engine.Config{CacheSize: 1024}})
	defer s.eng.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	type guest struct {
		family bintree.Family
		seed   int64
	}
	var guests []guest
	for _, f := range bintree.Families {
		guests = append(guests, guest{f, 1})
	}
	guests = append(guests, guest{bintree.FamilyRandom, 2}, guest{bintree.FamilyBST, 2})
	for _, n := range []int{1, 17, 1008, 1009, 4080} {
		for _, g := range guests {
			tree, err := bintree.Generate(g.family, n, rand.New(rand.NewSource(g.seed)))
			if err != nil {
				t.Fatal(err)
			}
			perm := make([]int32, n)
			for i, v := range rng.Perm(n) {
				perm[i] = int32(v)
			}
			mirrored := isoCopy(t, tree, nil, true)
			decoded, err := bintree.Decode(mirrored.Encode())
			if err != nil {
				t.Fatal(err)
			}
			copies := []*bintree.Tree{tree, isoCopy(t, tree, perm, false), mirrored, decoded}
			reqs := []EmbedRequest{{}, {Host: HostHypercube}, {Injective: true}, {Strict: true}, {Height: core.OptimalHeight(n) + 1}}
			for _, req := range reqs {
				for k, tr := range copies {
					bi := s.eng.EmbedBatchProfile(ctx, req.profile(), []*bintree.Tree{tr})[0]
					if k > 0 && bi.Err == nil && !bi.CacheHit {
						t.Errorf("%s seed %d n=%d %+v: copy %d missed the cache", g.family, g.seed, n, req, k)
					}
					got, want := s.embedItem(ctx, &req, bi), perRequestItem(t, &req, bi)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s seed %d n=%d %+v copy %d:\n  answer      %+v\n  per request %+v",
							g.family, g.seed, n, req, k, got, want)
					}
				}
			}
		}
	}
}

// TestWarmedHitsAnswerAsBeforeRestart: after a restart that warms the
// cache from the snapshot, a hit answers the X-tree and the hypercube
// items of the server that computed the entry, max_load included.  A
// parsed embedding used to carry no load, so a warmed hit answered
// max_load 0 and the wire dropped the field.
func TestWarmedHitsAnswerAsBeforeRestart(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "cache.snap")
	spec := TreeSpec{Family: "path", N: 1008, Seed: Seed(1)}
	reqs := []EmbedRequest{{Tree: &spec}, {Tree: &spec, Host: HostHypercube}}
	boot := func() (answers []string, warmed int64) {
		s := New(Config{SnapshotPath: snap, Logger: log.New(io.Discard, "", 0)})
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		defer s.Shutdown(context.Background())
		warmed = s.eng.Stats().WarmLoaded
		for _, req := range reqs {
			resp, data := postJSON(t, s.URL()+"/v1/embed", req)
			if resp.StatusCode != 200 {
				t.Fatalf("%+v: status %d: %s", req, resp.StatusCode, data)
			}
			if !strings.Contains(string(data), `"max_load":16`) {
				t.Errorf("%s host, warm_loaded %d: no max_load 16 in %s", req.hostName(), warmed, data)
			}
			it := decodeEmbed(t, data).Items[0]
			if it.CacheHit != (warmed > 0 || req.Host == HostHypercube) {
				t.Errorf("%s host, warm_loaded %d: cache_hit %v", req.hostName(), warmed, it.CacheHit)
			}
			it.CacheHit = false
			raw, err := json.Marshal(it)
			if err != nil {
				t.Fatal(err)
			}
			answers = append(answers, string(raw))
		}
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		return answers, warmed
	}
	before, _ := boot()
	after, warmed := boot()
	if warmed != 1 {
		t.Fatalf("the restarted server warmed %d entries, want 1", warmed)
	}
	for i := range reqs {
		if before[i] != after[i] {
			t.Errorf("%s host: %s before the restart, %s after", reqs[i].hostName(), before[i], after[i])
		}
	}
}

// TestHitAnswerAllocs gates what a cache hit costs beyond the engine's
// remap: building the X-tree or the hypercube answer from the hit at
// n=4080 allocates nothing.
func TestHitAnswerAllocs(t *testing.T) {
	s := New(Config{})
	defer s.eng.Close()
	ctx := context.Background()
	tree, err := bintree.Generate(bintree.FamilyRandom, 4080, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	s.eng.EmbedBatch(ctx, []*bintree.Tree{tree})
	bi := s.eng.EmbedBatch(ctx, []*bintree.Tree{isoCopy(t, tree, nil, true)})[0]
	if bi.Err != nil || !bi.CacheHit {
		t.Fatalf("hit=%v err=%v, want a cache hit", bi.CacheHit, bi.Err)
	}
	for _, req := range []EmbedRequest{{}, {Host: HostHypercube}} {
		allocs := testing.AllocsPerRun(20, func() {
			if it := s.embedItem(ctx, &req, bi); it.Dilation == 0 || it.MaxLoad != 16 {
				t.Fatalf("%s answer %+v", req.hostName(), it)
			}
		})
		if allocs > 0 {
			t.Errorf("the %s answer of a hit at n=4080 allocates %.0f times, want 0", req.hostName(), allocs)
		}
		t.Logf("the %s answer of a hit at n=4080: %.0f allocs", req.hostName(), allocs)
	}
}
