package core

import (
	"math/rand"
	"strings"
	"testing"

	"xtreesim/internal/bintree"
)

// TestTheorem1AllFamilies verifies the paper's headline claim on every tree
// family: dilation ≤ 3, load ≤ 16 and optimal expansion for
// n = 16·(2^(r+1)−1).
func TestTheorem1AllFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	heights := []int{6, 7, 8}
	if !testing.Short() {
		heights = append(heights, 9, 10)
	}
	for _, r := range heights {
		n := int(Capacity(r))
		for _, f := range bintree.Families {
			tr, err := bintree.Generate(f, n, rng)
			if err != nil {
				t.Fatal(err)
			}
			res, err := EmbedXTree(tr, Options{Height: -1, Strict: true})
			if err != nil {
				t.Fatalf("%s r=%d: %v", f, r, err)
			}
			if res.Host.Height() != r {
				t.Fatalf("%s: host height %d, want %d (optimal expansion)", f, res.Host.Height(), r)
			}
			if d := res.Dilation(); d > 3 {
				t.Errorf("%s r=%d: dilation %d > 3", f, r, d)
			}
			if l := res.MaxLoad(); l > LoadTarget {
				t.Errorf("%s r=%d: load %d > 16", f, r, l)
			}
			if res.Stats.Cond3Violations != 0 || res.Stats.FinalFallbacks != 0 {
				t.Errorf("%s r=%d: %d cond3 violations, %d fallbacks",
					f, r, res.Stats.Cond3Violations, res.Stats.FinalFallbacks)
			}
		}
	}
}

// TestTheorem1NonTheoremSizes checks that arbitrary sizes (not of the form
// 16·(2^(r+1)−1)) still embed with the same dilation and load bounds into
// the minimal X-tree.
func TestTheorem1NonTheoremSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	trials := 40
	if testing.Short() {
		trials = 12
	}
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(5000)
		f := bintree.Families[rng.Intn(len(bintree.Families))]
		tr, err := bintree.Generate(f, n, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := EmbedXTree(tr, DefaultOptions())
		if err != nil {
			t.Fatalf("%s n=%d: %v", f, n, err)
		}
		if d := res.Dilation(); d > 3 {
			t.Errorf("%s n=%d: dilation %d", f, n, d)
		}
		if l := res.MaxLoad(); l > LoadTarget {
			t.Errorf("%s n=%d: load %d", f, n, l)
		}
	}
}

// TestTheorem1EveryNodePlacedOnce checks the embedding is a total function
// with per-vertex loads summing to n.
func TestTheorem1EveryNodePlacedOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := bintree.RandomAttachment(int(Capacity(5)), rng)
	res, err := EmbedXTree(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	emb := res.Embedding()
	if err := emb.Validate(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range emb.Loads() {
		if c > LoadTarget {
			t.Errorf("vertex with load %d", c)
		}
		total += c
	}
	if total != tr.N() {
		t.Errorf("loads sum to %d, want %d", total, tr.N())
	}
	// Every interior vertex of the optimal embedding carries exactly 16.
	if len(emb.Loads()) != int(res.Host.NumVertices()) {
		t.Errorf("only %d of %d vertices used", len(emb.Loads()), res.Host.NumVertices())
	}
}

// TestTheorem2Injective verifies the injective embedding into X(r+4) with
// dilation ≤ 11.
func TestTheorem2Injective(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, r := range []int{3, 5, 7} {
		n := int(Capacity(r))
		for _, f := range []bintree.Family{bintree.FamilyRandom, bintree.FamilyPath, bintree.FamilyCaterpillar} {
			tr, err := bintree.Generate(f, n, rng)
			if err != nil {
				t.Fatal(err)
			}
			res, err := EmbedXTree(tr, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			inj, err := EmbedInjective(res)
			if err != nil {
				t.Fatal(err)
			}
			if inj.Host.Height() != r+4 {
				t.Errorf("injective host height %d, want %d", inj.Host.Height(), r+4)
			}
			emb := inj.Embedding()
			if !emb.IsInjective() {
				t.Fatalf("%s r=%d: not injective", f, r)
			}
			if d := emb.Dilation(); d > 11 {
				t.Errorf("%s r=%d: injective dilation %d > 11", f, r, d)
			}
		}
	}
}

// TestTheorem3Hypercube verifies the hypercube corollary: load 16 and
// dilation ≤ 4 in Q_{r+1} (the optimal hypercube for n = 16·(2^r −1)
// guests embedded via X(r−1) — here we embed the X(r) capacity and land in
// Q_{r+1}).
func TestTheorem3Hypercube(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, r := range []int{4, 6} {
		// Theorem 3 sizes: n = 16·(2^R − 1) with host Q_R = Q_{r+1}.
		n := int(Capacity(r))
		for _, f := range []bintree.Family{bintree.FamilyRandom, bintree.FamilyBroom} {
			tr, err := bintree.Generate(f, n, rng)
			if err != nil {
				t.Fatal(err)
			}
			res, err := EmbedXTree(tr, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			hc := EmbedHypercube(res)
			if hc.Host.Dim() != r+1 {
				t.Errorf("hypercube dim %d, want %d", hc.Host.Dim(), r+1)
			}
			emb := hc.Embedding()
			if l := emb.MaxLoad(); l > LoadTarget {
				t.Errorf("%s r=%d: hypercube load %d", f, r, l)
			}
			if d := emb.Dilation(); d > 4 {
				t.Errorf("%s r=%d: hypercube dilation %d > 4", f, r, d)
			}
		}
	}
}

// TestInjectiveHypercube verifies the corollary: injective into the
// hypercube with constant dilation.
func TestInjectiveHypercube(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	tr := bintree.RandomAttachment(int(Capacity(4)), rng)
	res, err := EmbedXTree(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	inj, err := EmbedInjective(res)
	if err != nil {
		t.Fatal(err)
	}
	hc := InjectiveHypercube(inj)
	emb := hc.Embedding()
	if !emb.IsInjective() {
		t.Fatal("not injective in the hypercube")
	}
	if d := emb.Dilation(); d > 12 {
		t.Errorf("injective hypercube dilation %d > 12", d)
	}
}

// TestImbalanceConverges checks the A(j,i) behaviour of §2(iii): the
// maximum sibling imbalance must shrink geometrically over the rounds and
// reach 0 before the final round on theorem-sized instances.
func TestImbalanceConverges(t *testing.T) {
	tr := bintree.Path(int(Capacity(8)))
	opts := DefaultOptions()
	opts.ImbalanceStats = true
	res, err := EmbedXTree(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	imb := res.Stats.MaxImbalance
	if len(imb) != 8 {
		t.Fatalf("imbalance trace %v", imb)
	}
	if last := imb[len(imb)-1]; last > 1 {
		t.Errorf("final imbalance %d, want ≤ 1 (trace %v)", last, imb)
	}
	for i := 2; i < len(imb); i++ {
		if imb[i] > imb[i-1] && imb[i] > imb[0]/2 {
			t.Errorf("imbalance not shrinking: %v", imb)
			break
		}
	}
}

// TestStrictMode ensures strict mode succeeds on theorem instances (no
// condition (3′) violations at all) and returns an error where an
// ablation breaks condition (3′).
func TestStrictMode(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, f := range bintree.Families {
		tr, err := bintree.Generate(f, int(Capacity(6)), rng)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := EmbedXTree(tr, Options{Height: -1, Strict: true}); err != nil {
			t.Errorf("%s: strict embedding failed: %v", f, err)
		}
	}
	// The error path: without SPLIT's leveling cut a path guest breaks
	// condition (3′), and strict mode must surface that as an error.
	path := bintree.Path(int(Capacity(7)))
	if _, err := EmbedXTree(path, Options{Height: -1, Strict: true, DisableLeveling: true}); err == nil {
		t.Error("strict mode swallowed the leveling ablation's violations on a path guest")
	}
}

// TestForcedHeight checks embedding into a larger-than-optimal host.
func TestForcedHeight(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tr := bintree.RandomAttachment(100, rng)
	res, err := EmbedXTree(tr, Options{Height: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Host.Height() != 5 {
		t.Fatalf("height = %d", res.Host.Height())
	}
	if d := res.Dilation(); d > 3 {
		t.Errorf("dilation %d with slack host", d)
	}
	if _, err := EmbedXTree(tr, Options{Height: 1}); err == nil {
		t.Error("overfull host accepted")
	}
}

// TestPinnedHeightBounded: a pin above maxHeight is an error that names
// the limit, decided before the host is built.  Height 58 used to panic
// in makeslice and 59-63 overflowed Capacity; never run heights 22-57
// without the bound, they ask for gigabytes.
func TestPinnedHeightBounded(t *testing.T) {
	tr := bintree.Path(10)
	limit := maxHeight(tr.N())
	if limit != 20 {
		t.Fatalf("maxHeight(10) = %d, want 20", limit)
	}
	for _, h := range []int{58, 63, limit + 1} {
		_, err := EmbedXTree(tr, Options{Height: h})
		if err == nil || !strings.Contains(err.Error(), "limit 20") {
			t.Errorf("height %d: error %v, want one naming the limit 20", h, err)
		}
	}
	// Theorem 2's host height stays a valid pin.
	if _, err := EmbedXTree(tr, Options{Height: OptimalHeight(tr.N()) + 4}); err != nil {
		t.Errorf("X(r+4) pin: %v", err)
	}
}

func TestEmptyGuest(t *testing.T) {
	tr, _ := bintree.NewFromParents(nil, nil)
	if _, err := EmbedXTree(tr, DefaultOptions()); err == nil {
		t.Error("empty guest accepted")
	}
}

// TestInjectiveHypercubeDirect verifies the paper's corollary constant:
// injective into the hypercube with dilation ≤ 8 (4 from Theorem 3 plus 4
// tag bits).
func TestInjectiveHypercubeDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, f := range []bintree.Family{bintree.FamilyRandom, bintree.FamilyPath, bintree.FamilyCaterpillar} {
		tr, err := bintree.Generate(f, int(Capacity(5)), rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := EmbedXTree(tr, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		hc := InjectiveHypercubeDirect(res)
		emb := hc.Embedding()
		if !emb.IsInjective() {
			t.Fatalf("%s: not injective", f)
		}
		if d := emb.Dilation(); d > 8 {
			t.Errorf("%s: direct injective hypercube dilation %d > 8", f, d)
		}
		if hc.Host.Dim() != res.Host.Height()+5 {
			t.Errorf("%s: host dim %d", f, hc.Host.Dim())
		}
	}
}
