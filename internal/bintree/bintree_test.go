package bintree

import (
	"math/rand"
	"testing"
	"testing/quick"
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
	if tr.Degree(0) != 2 || tr.Degree(1) != 2 || tr.Degree(3) != 1 {
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
			maxDeg := 0
			for v := int32(0); v < int32(n); v++ {
				if d := tr.Degree(v); d > maxDeg {
					maxDeg = d
				}
			}
			if maxDeg > 3 {
				t.Fatalf("Generate(%s,%d) has degree %d > 3", f, n, maxDeg)
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

func TestSubtreeSizes(t *testing.T) {
	tr := Complete(2) // 7 nodes
	size := tr.SubtreeSizes()
	want := []int32{7, 3, 3, 1, 1, 1, 1}
	for v, w := range want {
		if size[v] != w {
			t.Errorf("size[%d] = %d, want %d", v, size[v], w)
		}
	}
	p := Path(5)
	size = p.SubtreeSizes()
	for v := 0; v < 5; v++ {
		if size[v] != int32(5-v) {
			t.Errorf("path size[%d] = %d", v, size[v])
		}
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

func TestReroot(t *testing.T) {
	tr := Path(6)
	rr, err := tr.Reroot(5)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Root() != 5 {
		t.Fatalf("reroot root = %d", rr.Root())
	}
	if !rr.AsGraph().IsTree() {
		t.Fatal("reroot broke tree")
	}
	// Undirected edge sets must be identical.
	if !tr.AsGraph().IsSubgraphOf(rr.AsGraph()) || !rr.AsGraph().IsSubgraphOf(tr.AsGraph()) {
		t.Error("reroot changed the edge set")
	}
	if rr.Height() != 5 {
		t.Errorf("rerooted path height = %d", rr.Height())
	}
	// Rerooting at a degree-3 node must be rejected.
	c := Caterpillar(7)
	if _, err := c.Reroot(2); err == nil {
		t.Error("reroot at degree-3 node accepted")
	}
}

func TestPropertyRandomTreesValid(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func() bool {
		n := 1 + rng.Intn(200)
		tr := RandomAttachment(n, rng)
		g := tr.AsGraph()
		if !g.IsTree() || g.MaxDegree() > 3 {
			return false
		}
		// Subtree sizes sum check: root subtree = n.
		return tr.SubtreeSizes()[tr.Root()] == int32(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertyRerootPreservesEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func() bool {
		n := 1 + rng.Intn(100)
		tr := RandomBSTShape(n, rng)
		v := int32(rng.Intn(n))
		rr, err := tr.Reroot(v)
		if tr.Degree(v) > 2 {
			return err != nil
		}
		if err != nil {
			return false
		}
		return rr.Root() == v && rr.AsGraph().IsSubgraphOf(tr.AsGraph()) &&
			tr.AsGraph().IsSubgraphOf(rr.AsGraph())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
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
	if p.SubtreeSizes()[0] != int32(n) {
		t.Fatal("subtree size of root wrong")
	}
	// Decode and CanonicalCode must not recurse either, on both of the
	// latter's branches: the descending scan and the PostOrder walk.
	dec, err := Decode(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Equal(p) {
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
