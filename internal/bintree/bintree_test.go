package bintree

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"xtreesim/internal/graph"
)

func TestNewFromParentsBasic(t *testing.T) {
	//      0
	//     / \
	//    1   2
	//   /
	//  3
	tr, err := NewFromParents([]int32{None, 0, 0, 1}, []byte{0, 0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root() != 0 || tr.N() != 4 {
		t.Fatalf("root=%d n=%d", tr.Root(), tr.N())
	}
	if tr.Left(0) != 1 || tr.Right(0) != 2 || tr.Left(1) != 3 || tr.Right(1) != None {
		t.Fatalf("children wrong: %v %v %v", tr.Left(0), tr.Right(0), tr.Left(1))
	}
	if len(tr.Neighbors(0, nil)) != 2 || len(tr.Neighbors(3, nil)) != 1 {
		t.Fatal("degrees wrong")
	}
	if got := tr.Neighbors(1, nil); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("Neighbors(1) = %v", got)
	}
}

func TestNewFromParentsErrors(t *testing.T) {
	if _, err := NewFromParents([]int32{None, None}, nil); err == nil {
		t.Error("two roots accepted")
	}
	if _, err := NewFromParents([]int32{0}, nil); err == nil {
		t.Error("self-parent accepted")
	}
	if _, err := NewFromParents([]int32{None, 0, 0, 0}, nil); err == nil {
		t.Error("three children accepted")
	}
	if _, err := NewFromParents([]int32{1, 2, 0}, nil); err == nil {
		t.Error("cycle accepted (no root)")
	}
	if _, err := NewFromParents([]int32{None, 2, 1}, nil); err == nil {
		t.Error("cycle with root accepted")
	}
}

func TestComplete(t *testing.T) {
	tr := Complete(3)
	if tr.N() != 15 {
		t.Fatalf("Complete(3).N = %d", tr.N())
	}
	if tr.Height() != 3 {
		t.Fatalf("height = %d", tr.Height())
	}
	// Heap numbering.
	if tr.Left(0) != 1 || tr.Right(0) != 2 || tr.Left(3) != 7 {
		t.Fatal("heap numbering broken")
	}
	if !tr.AsGraph().IsTree() {
		t.Error("complete tree adjacency is not a tree")
	}
}

func TestPathZigzagShapes(t *testing.T) {
	p := Path(6)
	if p.Height() != 5 {
		t.Errorf("path height = %d", p.Height())
	}
	for v := int32(0); v < 5; v++ {
		if p.Left(v) != v+1 || p.Right(v) != None {
			t.Fatalf("path node %d children %d/%d", v, p.Left(v), p.Right(v))
		}
	}
	z := Zigzag(6)
	if z.Height() != 5 {
		t.Errorf("zigzag height = %d", z.Height())
	}
	if z.Right(0) != 1 {
		t.Error("zigzag node 0 should have right child 1")
	}
	if z.Left(1) != 2 {
		t.Error("zigzag node 1 should have left child 2")
	}
}

func TestCaterpillarBroom(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 10, 17} {
		c := Caterpillar(n)
		if c.N() != n {
			t.Fatalf("Caterpillar(%d).N = %d", n, c.N())
		}
		if n > 0 && !c.AsGraph().IsTree() {
			t.Fatalf("Caterpillar(%d) not a tree", n)
		}
		b := Broom(n)
		if b.N() != n {
			t.Fatalf("Broom(%d).N = %d", n, b.N())
		}
		if n > 0 && !b.AsGraph().IsTree() {
			t.Fatalf("Broom(%d) not a tree", n)
		}
	}
	// Caterpillar(7): spine 0-2-4-6 with leaves 1,3,5.
	c := Caterpillar(7)
	if c.Left(0) != 2 || c.Right(0) != 1 || c.Left(2) != 4 || c.Right(2) != 3 {
		t.Error("caterpillar shape unexpected")
	}
}

func TestGenerateFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, f := range Families {
		for _, n := range []int{1, 2, 7, 48, 255} {
			tr, err := Generate(f, n, rng)
			if err != nil {
				t.Fatalf("Generate(%s,%d): %v", f, n, err)
			}
			if tr.N() != n {
				t.Fatalf("Generate(%s,%d).N = %d", f, n, tr.N())
			}
			if !tr.AsGraph().IsTree() {
				t.Fatalf("Generate(%s,%d) is not a tree", f, n)
			}
			if d := tr.AsGraph().MaxDegree(); d > 3 {
				t.Fatalf("Generate(%s,%d) has degree %d > 3", f, n, d)
			}
		}
	}
	if _, err := Generate("nope", 5, rng); err == nil {
		t.Error("unknown family accepted")
	}
	if _, err := Generate(FamilyRandom, 5, nil); err == nil {
		t.Error("random family without rng accepted")
	}
}

func TestTraversalOrders(t *testing.T) {
	tr := Complete(2)
	post := tr.PostOrder()
	if len(post) != 7 || post[len(post)-1] != 0 {
		t.Errorf("post order = %v", post)
	}
	seen := map[int32]bool{}
	for _, v := range post {
		if l := tr.Left(v); l != None && !seen[l] {
			t.Errorf("post order visits %d before its left child", v)
		}
		seen[v] = true
	}
	pre := tr.PreOrder()
	if len(pre) != 7 || pre[0] != 0 {
		t.Errorf("pre order = %v", pre)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		tr := RandomAttachment(1+rng.Intn(60), rng)
		enc := tr.Encode()
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(%q): %v", enc, err)
		}
		if dec.Encode() != enc {
			t.Fatalf("round trip mismatch: %q vs %q", enc, dec.Encode())
		}
		if dec.N() != tr.N() {
			t.Fatalf("size mismatch after round trip")
		}
	}
	for _, bad := range []string{"(", "((..)", "(..))", "x", "(..)(..)"} {
		if _, err := Decode(bad); err == nil {
			t.Errorf("Decode(%q) succeeded", bad)
		}
	}
	if tr, err := Decode(""); err != nil || tr.N() != 0 {
		t.Error("empty decode failed")
	}
}

func TestPropertyRandomTreesValid(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func() bool {
		n := 1 + rng.Intn(200)
		tr := RandomAttachment(n, rng)
		g := tr.AsGraph()
		return g.IsTree() && g.MaxDegree() <= 3 && len(tr.PostOrder()) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDeepPathIterativeTraversal(t *testing.T) {
	// PostOrder/PreOrder/Height must not recurse: a 200k-deep path would
	// otherwise overflow the goroutine stack long before 1GB.
	n := 200_000
	p := Path(n)
	if got := len(p.PostOrder()); got != n {
		t.Fatalf("PostOrder length = %d", got)
	}
	if p.Height() != n-1 {
		t.Fatalf("height = %d", p.Height())
	}
	// Decode and CanonicalCode must not recurse either, on both of the
	// latter's branches: the descending scan and the PostOrder walk.
	dec, err := Decode(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !sameTree(dec, p) {
		t.Fatal("decoded path differs from the path")
	}
	code, order := dec.CanonicalCode()
	post := *dec
	post.parentFirst = false
	if pcode, porder := post.CanonicalCode(); code != pcode || len(order) != n || len(porder) != n {
		t.Fatalf("canonical code or order of the path differs between branches (%d, %d nodes)",
			len(order), len(porder))
	}
}

// TestAsGraphMatchesAddEdge holds the sized build to the AddEdge
// construction it replaced, list for list, and pins its allocations: the
// same small count at every size.
func TestAsGraphMatchesAddEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var allocs []float64
	for _, f := range Families {
		for _, n := range []int{1, 2, 17, 1008} {
			tr, err := Generate(f, n, rng)
			if err != nil {
				t.Fatal(err)
			}
			want := graph.New(n)
			for v := 0; v < n; v++ {
				if p := tr.Parent(int32(v)); p != None {
					want.AddEdge(v, int(p))
				}
			}
			want.SortAdjacency()
			got := tr.AsGraph()
			if got.N() != n || got.M() != want.M() {
				t.Fatalf("%s n=%d: %d vertices and %d edges, want %d and %d", f, n, got.N(), got.M(), n, want.M())
			}
			for v := 0; v < n; v++ {
				if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) {
					t.Fatalf("%s n=%d: vertex %d has neighbors %v, want %v", f, n, v, got.Neighbors(v), want.Neighbors(v))
				}
			}
			a := testing.AllocsPerRun(5, func() { tr.AsGraph() })
			if a > 4 {
				t.Errorf("%s n=%d: AsGraph allocates %.0f times, want at most 4", f, n, a)
			}
			allocs = append(allocs, a)
		}
	}
	t.Logf("AsGraph allocations over families and sizes: %v", allocs)
}
