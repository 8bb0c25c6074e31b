package xtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xtreesim/internal/bitstr"
)

// TestFigure1 checks X(3) against the picture in the paper: 15 vertices,
// tree edges plus horizontal chains on every level.
func TestFigure1(t *testing.T) {
	x := New(3)
	if x.NumVertices() != 15 {
		t.Fatalf("X(3) has %d vertices, want 15", x.NumVertices())
	}
	// Edge count: tree edges 2^(r+1)-2 = 14, horizontal edges sum
	// (2^j - 1) for j=1..3 = 1+3+7 = 11, total 25.
	g := x.AsGraph()
	if g.M() != 25 {
		t.Fatalf("X(3) has %d edges, want 25", g.M())
	}
	edge := func(a, b string) bool {
		return g.HasEdge(int(bitstr.MustParse(a).ID()), int(bitstr.MustParse(b).ID()))
	}
	mustEdge := func(a, b string) {
		t.Helper()
		if !edge(a, b) {
			t.Errorf("missing edge %s -- %s", a, b)
		}
	}
	noEdge := func(a, b string) {
		t.Helper()
		if edge(a, b) {
			t.Errorf("unexpected edge %s -- %s", a, b)
		}
	}
	mustEdge("", "0")
	mustEdge("", "1")
	mustEdge("0", "1")
	mustEdge("01", "10") // horizontal across the middle
	mustEdge("011", "100")
	mustEdge("10", "101")
	noEdge("00", "11")
	noEdge("000", "010")
	noEdge("0", "11")
	noEdge("", "")
}

func TestNeighborsDegree(t *testing.T) {
	x := New(3)
	cases := []struct {
		v      string
		degree int
	}{
		{"", 2},    // root: two children
		{"0", 4},   // parent, sibling-successor, two children
		{"1", 4},   //
		{"00", 4},  // parent, successor, two children
		{"01", 5},  // parent, pred, succ, two children
		{"11", 4},  // parent, pred, two children (no successor)
		{"000", 2}, // leaf: parent, successor
		{"011", 3}, // leaf: parent, pred, succ
		{"111", 2}, // last leaf: parent, pred
		{"101", 3},
	}
	for _, c := range cases {
		if got := len(x.Neighbors(bitstr.MustParse(c.v), nil)); got != c.degree {
			t.Errorf("degree(%q) = %d, want %d", c.v, got, c.degree)
		}
	}
	// Max degree of an X-tree is 5.
	g := x.AsGraph()
	if g.MaxDegree() != 5 {
		t.Errorf("X(3) max degree = %d, want 5", g.MaxDegree())
	}
}

func TestNeighborsMatchGraph(t *testing.T) {
	x := New(5)
	g := x.AsGraph()
	x.Vertices(func(a bitstr.Addr) bool {
		ns := x.Neighbors(a, nil)
		if len(ns) != g.Degree(int(a.ID())) {
			t.Errorf("degree mismatch at %v: %d vs %d", a, len(ns), g.Degree(int(a.ID())))
		}
		for _, b := range ns {
			if !g.HasEdge(int(a.ID()), int(b.ID())) || !g.HasEdge(int(b.ID()), int(a.ID())) {
				t.Errorf("implicit edge %v--%v missing from graph", a, b)
			}
		}
		return true
	})
}

// bfsDistance is the bidirectional breadth-first search that Distance used
// before its closed form, kept as an independent oracle for the tests.
func bfsDistance(x *XTree, a, b bitstr.Addr) int {
	if a == b {
		return 0
	}
	distA := map[bitstr.Addr]int{a: 0}
	distB := map[bitstr.Addr]int{b: 0}
	frontA := []bitstr.Addr{a}
	frontB := []bitstr.Addr{b}
	var buf []bitstr.Addr
	best := -1
	for len(frontA) > 0 || len(frontB) > 0 {
		// Expand the smaller frontier.
		front, dist, other := &frontA, distA, distB
		if len(frontB) > 0 && (len(frontA) == 0 || len(frontB) < len(frontA)) {
			front, dist, other = &frontB, distB, distA
		}
		var next []bitstr.Addr
		for _, u := range *front {
			du := dist[u]
			buf = x.Neighbors(u, buf[:0])
			for _, v := range buf {
				if _, seen := dist[v]; seen {
					continue
				}
				if dv, meet := other[v]; meet {
					if d := du + 1 + dv; best < 0 || d < best {
						best = d
					}
					continue
				}
				dist[v] = du + 1
				next = append(next, v)
			}
		}
		*front = next
		if best >= 0 {
			// The first meeting can overshoot by one layer; once best
			// is at most the sum of both search depths no shorter path
			// can appear.
			da, db := 0, 0
			for _, d := range distA {
				da = max(da, d)
			}
			for _, d := range distB {
				db = max(db, d)
			}
			if best <= da+db {
				return best
			}
		}
	}
	return best
}

// TestDistanceAgainstBFS checks the closed form against breadth-first
// search on every vertex pair of X(h) for h ≤ 10.
func TestDistanceAgainstBFS(t *testing.T) {
	for h := 0; h <= 10; h++ {
		x := New(h)
		g := x.AsGraph()
		n := int(x.NumVertices())
		for u := 0; u < n; u++ {
			a := bitstr.FromID(int64(u))
			for v, want := range g.BFSFrom(u) {
				if got := x.Distance(a, bitstr.FromID(int64(v))); got != want {
					t.Fatalf("X(%d): Distance(%v,%v) = %d, BFS %d", h, a, bitstr.FromID(int64(v)), got, want)
				}
			}
		}
	}
}

// TestDistanceNearPairsDeepTrees checks pairs within a few hops of each
// other, at every height up to bitstr.MaxLevel, against the breadth-first
// oracle.  These are the pairs the dilation metrics and the embedder ask
// about: Theorem 1 keeps every guest edge within distance 3.
func TestDistanceNearPairsDeepTrees(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for h := 1; h <= bitstr.MaxLevel; h++ {
		x := New(h)
		for trial := 0; trial < 8; trial++ {
			level := r.Intn(h + 1)
			// Bias toward the level borders, where successors and
			// predecessors run out.
			var idx uint64
			switch width := uint64(1) << uint(level); trial % 4 {
			case 0:
				idx = uint64(r.Intn(4)) % width
			case 1:
				idx = width - 1 - uint64(r.Intn(4))%width
			default:
				idx = r.Uint64() % width
			}
			a := bitstr.Addr{Level: level, Index: idx}
			near := append(x.NSet(a), x.ReverseN(a)...)
			// Walk a few random steps for pairs outside the N-relation.
			b := a
			for step := 0; step < 6; step++ {
				nb := x.Neighbors(b, nil)
				b = nb[r.Intn(len(nb))]
				near = append(near, b)
			}
			for _, b := range near {
				if got, want := x.Distance(a, b), bfsDistance(x, a, b); got != want {
					t.Fatalf("X(%d): Distance(%v,%v) = %d, BFS %d", h, a, b, got, want)
				}
				if got := x.Distance(b, a); got != x.Distance(a, b) {
					t.Fatalf("X(%d): Distance not symmetric on %v,%v", h, a, b)
				}
			}
		}
	}
}

// TestDistanceRandomPairs checks uniformly random, mostly far-apart pairs
// of X(14) against the breadth-first oracle.
func TestDistanceRandomPairs(t *testing.T) {
	x := New(14)
	n := x.NumVertices()
	r := rand.New(rand.NewSource(16))
	for trial := 0; trial < 200; trial++ {
		a, b := bitstr.FromID(r.Int63n(n)), bitstr.FromID(r.Int63n(n))
		if got, want := x.Distance(a, b), bfsDistance(x, a, b); got != want {
			t.Fatalf("Distance(%v,%v) = %d, BFS %d", a, b, got, want)
		}
	}
}

func TestDistanceAllocs(t *testing.T) {
	x := New(30)
	a := bitstr.MustParse("010110100101101001011010011011")
	b := bitstr.MustParse("1")
	if allocs := testing.AllocsPerRun(100, func() { x.Distance(a, b) }); allocs != 0 {
		t.Errorf("Distance allocates %.1f times per call, want 0", allocs)
	}
}

func TestDistanceOutsideTreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Distance accepted a vertex below the deepest level")
		}
	}()
	New(3).Distance(bitstr.Root(), bitstr.MustParse("0101"))
}

func TestDistanceLargeTree(t *testing.T) {
	// The implicit representation must handle heights far beyond anything
	// materializable.  Distances between a vertex and its ancestors and
	// horizontal neighbors must stay correct.
	x := New(40)
	a := bitstr.MustParse("0110110011010101001101010111010101010101")
	if d := x.Distance(a, a.Parent()); d != 1 {
		t.Errorf("parent distance = %d", d)
	}
	if d := x.Distance(a, a.Parent().Parent()); d != 2 {
		t.Errorf("grandparent distance = %d", d)
	}
	s, _ := a.Successor()
	if d := x.Distance(a, s); d != 1 {
		t.Errorf("successor distance = %d", d)
	}
	if d := x.Distance(bitstr.Root(), a); d > 40 || d < 1 {
		t.Errorf("root distance = %d", d)
	}
}

// TestFigure2NSet verifies the N(a) neighborhood properties used by
// Theorems 1 and 4: |N(a) − {a}| ≤ 20, every element lies within distance 3,
// and at most 5 vertices see a without being seen back.
func TestFigure2NSet(t *testing.T) {
	x := New(6)
	g := x.AsGraph()
	maxN, maxRevOnly := 0, 0
	x.Vertices(func(a bitstr.Addr) bool {
		ns := x.NSet(a)
		seen := map[bitstr.Addr]bool{}
		foundSelf := false
		for _, b := range ns {
			if seen[b] {
				t.Fatalf("NSet(%v) contains %v twice", a, b)
			}
			seen[b] = true
			if b == a {
				foundSelf = true
				continue
			}
			if d := g.Distance(int(a.ID()), int(b.ID())); d > 3 {
				t.Fatalf("NSet(%v) member %v at distance %d", a, b, d)
			}
			if !x.InN(a, b) {
				t.Fatalf("InN(%v,%v) = false but b in NSet", a, b)
			}
		}
		if !foundSelf {
			t.Fatalf("NSet(%v) misses a itself", a)
		}
		if len(ns)-1 > 20 {
			t.Fatalf("|NSet(%v)-{a}| = %d > 20", a, len(ns)-1)
		}
		if len(ns)-1 > maxN {
			maxN = len(ns) - 1
		}
		// Reverse-only count.
		revOnly := 0
		for _, b := range x.ReverseN(a) {
			if !x.InN(b, a) {
				t.Fatalf("ReverseN(%v) contains %v but a not in N(%v)", a, b, b)
			}
			if !x.InN(a, b) {
				revOnly++
			}
		}
		if revOnly > 5 {
			t.Fatalf("vertex %v has %d reverse-only neighbors, want <= 5", a, revOnly)
		}
		if revOnly > maxRevOnly {
			maxRevOnly = revOnly
		}
		return true
	})
	// The bounds are tight somewhere in a big enough tree.
	if maxN != 20 {
		t.Errorf("max |N(a)-{a}| = %d, want the tight 20", maxN)
	}
	if maxRevOnly != 5 {
		t.Errorf("max reverse-only = %d, want the tight 5", maxRevOnly)
	}
}

// TestNSetComplete checks NSet against a brute-force enumeration of the
// defining paths: ≤3 horizontal moves, or ≤2 downward then ≤2 horizontal.
func TestNSetComplete(t *testing.T) {
	x := New(7)
	brute := func(a bitstr.Addr) map[bitstr.Addr]bool {
		set := map[bitstr.Addr]bool{}
		// ≤ 3 horizontal.
		cur := map[bitstr.Addr]bool{a: true}
		set[a] = true
		for step := 0; step < 3; step++ {
			next := map[bitstr.Addr]bool{}
			for v := range cur {
				if p, ok := v.Predecessor(); ok {
					next[p] = true
				}
				if s, ok := v.Successor(); ok {
					next[s] = true
				}
			}
			for v := range next {
				set[v] = true
			}
			cur = next
		}
		// ≤ 2 down then ≤ 2 horizontal.
		down := map[bitstr.Addr]bool{a: true}
		for d := 0; d < 2; d++ {
			nextDown := map[bitstr.Addr]bool{}
			for v := range down {
				if v.Level < x.height {
					nextDown[v.Child(0)] = true
					nextDown[v.Child(1)] = true
				}
			}
			for v := range nextDown {
				set[v] = true
			}
			cur := nextDown
			for step := 0; step < 2; step++ {
				next := map[bitstr.Addr]bool{}
				for v := range cur {
					if p, ok := v.Predecessor(); ok {
						next[p] = true
					}
					if s, ok := v.Successor(); ok {
						next[s] = true
					}
				}
				for v := range next {
					set[v] = true
				}
				cur = next
			}
			down = nextDown
		}
		return set
	}
	r := rand.New(rand.NewSource(13))
	n := int(x.NumVertices())
	for trial := 0; trial < 100; trial++ {
		a := bitstr.FromID(int64(r.Intn(n)))
		want := brute(a)
		got := x.NSet(a)
		if len(got) != len(want) {
			t.Fatalf("NSet(%v) size %d, brute force %d", a, len(got), len(want))
		}
		for _, b := range got {
			if !want[b] {
				t.Fatalf("NSet(%v) contains %v not in brute-force set", a, b)
			}
		}
	}
}

func TestPropertyInNConsistency(t *testing.T) {
	x := New(10)
	r := rand.New(rand.NewSource(14))
	n := int(x.NumVertices())
	f := func() bool {
		a := bitstr.FromID(int64(r.Intn(n)))
		b := bitstr.FromID(int64(r.Intn(n)))
		in := x.InN(a, b)
		// Membership must match set construction.
		found := false
		for _, c := range x.NSet(a) {
			if c == b {
				found = true
				break
			}
		}
		if in != found {
			return false
		}
		// And everything in N(a) is within distance 3.
		if in && x.Distance(a, b) > 3 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLevelIsPath(t *testing.T) {
	// Every level of the X-tree forms a path under horizontal edges.
	g := New(8).AsGraph()
	for level := 1; level <= 8; level++ {
		for i := int64(0); i < int64(1)<<uint(level)-1; i++ {
			a := bitstr.Addr{Level: level, Index: uint64(i)}
			b := bitstr.Addr{Level: level, Index: uint64(i + 1)}
			if !g.HasEdge(int(a.ID()), int(b.ID())) {
				t.Fatalf("level %d not a path at index %d", level, i)
			}
		}
	}
}

func TestContains(t *testing.T) {
	x := New(4)
	if !x.Contains(bitstr.MustParse("0101")) {
		t.Error("level-4 vertex should be contained")
	}
	if x.Contains(bitstr.MustParse("01010")) {
		t.Error("level-5 vertex should not be contained")
	}
}
