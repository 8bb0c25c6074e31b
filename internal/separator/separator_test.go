package separator

import (
	"math/rand"
	"slices"
	"testing"

	"xtreesim/internal/bintree"
)

// buildFromTree roots the whole guest tree at its own root.
func buildFromTree(t *bintree.Tree) *Rooted {
	return Build(t.Neighbors, t.Root(), nil)
}

func TestBuildRooted(t *testing.T) {
	tr := bintree.Complete(2) // 7 nodes, heap numbering
	r := buildFromTree(tr)
	if r.N() != 7 {
		t.Fatalf("N = %d", r.N())
	}
	if r.Guest(r.Root()) != 0 {
		t.Fatalf("root guest = %d", r.Guest(r.Root()))
	}
	l3, ok := r.Local(3)
	if !ok {
		t.Fatal("guest 3 missing")
	}
	if r.size[r.Root()] != 7 {
		t.Errorf("root size = %d", r.size[r.Root()])
	}
	if r.size[l3] != 1 {
		t.Errorf("leaf size = %d", r.size[l3])
	}
	l1, _ := r.Local(1)
	if r.size[l1] != 3 {
		t.Errorf("size of subtree at guest 1 = %d", r.size[l1])
	}
	if !r.IsAncestor(r.Root(), l3) || !r.IsAncestor(l1, l3) {
		t.Error("ancestor tests wrong")
	}
	l2, _ := r.Local(2)
	if r.IsAncestor(l2, l3) {
		t.Error("guest 2 should not be an ancestor of guest 3")
	}
	if lca := r.LCA(l3, l2); r.Guest(lca) != 0 {
		t.Errorf("LCA(3,2) guest = %d", r.Guest(lca))
	}
	l4, _ := r.Local(4)
	if lca := r.LCA(l3, l4); r.Guest(lca) != 1 {
		t.Errorf("LCA(3,4) guest = %d", r.Guest(lca))
	}
	sub := r.SubtreeGuests(l1, nil)
	if len(sub) != 3 {
		t.Errorf("SubtreeGuests(1) = %v", sub)
	}
}

func TestBuildWithMember(t *testing.T) {
	tr := bintree.Path(10)
	// Restrict to nodes 3..7, rooted at 5.
	r := Build(tr.Neighbors, 5, func(v int32) bool { return v >= 3 && v <= 7 })
	if r.N() != 5 {
		t.Fatalf("restricted component size = %d", r.N())
	}
	if _, ok := r.Local(2); ok {
		t.Error("node 2 leaked into component")
	}
	if _, ok := r.Local(8); ok {
		t.Error("node 8 leaked into component")
	}
}

func TestFind1Bound(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 500; trial++ {
		n := 4 + rng.Intn(400)
		tr := bintree.RandomAttachment(n, rng)
		r := buildFromTree(tr)
		// find1 needs 3n > 4A.
		maxA := (3*n - 1) / 4
		if maxA < 1 {
			continue
		}
		A := 1 + rng.Intn(maxA)
		u := find1(r, r.Root(), A, nil)
		got := int(r.size[u])
		if d := got - A; d > Lemma1Bound(A) || -d > Lemma1Bound(A) {
			t.Fatalf("find1 error %d for A=%d n=%d (size %d)", d, A, n, got)
		}
	}
}

func TestCarveBound(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 500; trial++ {
		n := 4 + rng.Intn(600)
		tr := bintree.RandomBSTShape(n, rng)
		r := buildFromTree(tr)
		maxA := (3*n - 1) / 4
		if maxA < 1 {
			continue
		}
		A := 1 + rng.Intn(maxA)
		p := carve(r, r.Root(), A, -1)
		guests := p.guests(r, nil)
		if len(guests) != p.size {
			t.Fatalf("piece size %d but %d guests", p.size, len(guests))
		}
		if d := p.size - A; d > Lemma2Bound(A) || -d > Lemma2Bound(A) {
			t.Fatalf("carve error %d for A=%d n=%d", d, A, n)
		}
	}
}

func lemma1Check(t *testing.T, tr *bintree.Tree, r2 int32, A int) {
	t.Helper()
	r := buildFromTree(tr)
	s, err := Lemma1(r, r2, A)
	if err != nil {
		t.Fatalf("Lemma1(n=%d r2=%d A=%d): %v", tr.N(), r2, A, err)
	}
	if err := Validate(r, r2, A, s, 4, 2, Lemma1Bound(A)); err != nil {
		t.Fatalf("Lemma1(n=%d r2=%d A=%d) invalid: %v (case %s)", tr.N(), r2, A, err, s.Case)
	}
}

func lemma2Check(t *testing.T, tr *bintree.Tree, r2 int32, A int) {
	t.Helper()
	r := buildFromTree(tr)
	s, err := Lemma2(r, r2, A)
	if err != nil {
		t.Fatalf("Lemma2(n=%d r2=%d A=%d): %v", tr.N(), r2, A, err)
	}
	if err := Validate(r, r2, A, s, 4, 4, Lemma2Bound(A)); err != nil {
		t.Fatalf("Lemma2(n=%d r2=%d A=%d) invalid: %v (case %s)", tr.N(), r2, A, err, s.Case)
	}
}

func TestLemma1Small(t *testing.T) {
	tr := bintree.Complete(3) // 15 nodes
	for _, r2 := range []int32{0, 7, 14, 3} {
		for _, A := range []int{1, 2, 5, 8, 11} {
			if 3*tr.N() > 4*A {
				lemma1Check(t, tr, r2, A)
			}
		}
	}
}

func TestLemma2Small(t *testing.T) {
	tr := bintree.Complete(3)
	for _, r2 := range []int32{0, 7, 14, 3} {
		for A := 0; A <= tr.N(); A++ {
			lemma2Check(t, tr, r2, A)
		}
	}
}

func TestLemma1Families(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, f := range bintree.Families {
		for trial := 0; trial < 60; trial++ {
			n := 2 + rng.Intn(300)
			tr, err := bintree.Generate(f, n, rng)
			if err != nil {
				t.Fatal(err)
			}
			r2 := int32(rng.Intn(n))
			maxA := (3*n - 1) / 4
			if maxA < 1 {
				continue
			}
			A := 1 + rng.Intn(maxA)
			lemma1Check(t, tr, r2, A)
		}
	}
}

func TestLemma2Families(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, f := range bintree.Families {
		for trial := 0; trial < 60; trial++ {
			n := 1 + rng.Intn(300)
			tr, err := bintree.Generate(f, n, rng)
			if err != nil {
				t.Fatal(err)
			}
			r2 := int32(rng.Intn(n))
			A := rng.Intn(n + 1)
			lemma2Check(t, tr, r2, A)
		}
	}
}

func TestLemma2EdgeTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(120)
		tr := bintree.RandomAttachment(n, rng)
		r2 := int32(rng.Intn(n))
		for _, A := range []int{0, 1, n / 2, n - 1, n} {
			if A < 0 || A > n {
				continue
			}
			lemma2Check(t, tr, r2, A)
		}
	}
}

func TestLemmaErrors(t *testing.T) {
	tr := bintree.Complete(2)
	r := buildFromTree(tr)
	if _, err := Lemma1(r, 3, 6); err == nil { // 3n=21 ≤ 4A=24
		t.Error("Lemma1 accepted oversized A")
	}
	if _, err := Lemma1(r, 3, 0); err == nil {
		t.Error("Lemma1 accepted A=0")
	}
	if _, err := Lemma1(r, 99, 2); err == nil {
		t.Error("Lemma1 accepted r2 outside component")
	}
	if _, err := Lemma2(r, 3, 8); err == nil {
		t.Error("Lemma2 accepted A > n")
	}
	if _, err := Lemma2(r, 3, -1); err == nil {
		t.Error("Lemma2 accepted negative A")
	}
}

// TestLemma2DeepTargetsOnPaths exercises the degenerate shapes where the
// descent runs long and case 2 carving meets tiny remainders.
func TestLemma2DeepTargetsOnPaths(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 9, 33, 100} {
		tr := bintree.Path(n)
		for r2 := int32(0); r2 < int32(n); r2 += int32(1 + n/7) {
			for A := 0; A <= n; A++ {
				lemma2Check(t, tr, r2, A)
			}
		}
	}
}

func TestPart1Of(t *testing.T) {
	tr := bintree.Complete(2)
	r := buildFromTree(tr)
	s, err := Lemma2(r, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	p1 := s.Part1Of(r)
	if len(p1)+len(s.Part2) != r.N() {
		t.Fatalf("parts do not partition: %d + %d != %d", len(p1), len(s.Part2), r.N())
	}
	seen := map[int32]bool{}
	for _, g := range p1 {
		seen[g] = true
	}
	for _, g := range s.Part2 {
		if seen[g] {
			t.Fatalf("node %d in both parts", g)
		}
	}
}

// TestBuilderReuseMatchesFreshBuild roots many components, large and
// small, into one Builder and compares each view with a fresh Build of the
// same component: a guest of an earlier, larger build must never read as
// a member through a stale pos entry, and children, sizes and ancestry
// must not depend on what the storage held before.
func TestBuilderReuseMatchesFreshBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tr := bintree.RandomAttachment(600, rng)
	var b Builder
	for trial := 0; trial < 200; trial++ {
		// Components of the forest left after dropping every k-th node.
		k := int32(2 + rng.Intn(40))
		member := func(v int32) bool { return v%k != 0 }
		root := int32(rng.Intn(tr.N()))
		if !member(root) {
			root++
		}
		got := b.Build(tr.Neighbors, root, member, 0)
		want := Build(tr.Neighbors, root, member)
		if got.N() != want.N() {
			t.Fatalf("trial %d: reused view has %d nodes, fresh view %d", trial, got.N(), want.N())
		}
		for g := int32(0); g < int32(tr.N()); g++ {
			lg, okg := got.Local(g)
			lw, okw := want.Local(g)
			if okg != okw || lg != lw {
				t.Fatalf("trial %d: Local(%d) = %d, %v reused, %d, %v fresh", trial, g, lg, okg, lw, okw)
			}
		}
		for l := int32(0); l < int32(want.N()); l++ {
			if got.Guest(l) != want.Guest(l) || got.Parent(l) != want.Parent(l) || got.size[l] != want.size[l] ||
				!slices.Equal(got.Children(l, nil), want.Children(l, nil)) {
				t.Fatalf("trial %d: local %d differs between the reused and the fresh view", trial, l)
			}
			p := got.Parent(l)
			if p >= 0 && (!got.IsAncestor(p, l) || got.IsAncestor(l, p)) {
				t.Fatalf("trial %d: ancestry of local %d and its parent %d is wrong", trial, l, p)
			}
		}
	}
}
