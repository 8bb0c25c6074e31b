package bintree

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"xtreesim/internal/race"
)

// canonicalCodeStack is the encoder CanonicalCode replaced, with the
// plan it read: children before parents (in PostOrder, which gives the
// same plan as any other such order), each node's subtree key and its
// canonical child order in first and second; then a frame stack walks
// that order, appending '(' on entry, each child's code or '.', and ')'
// on exit, and the entry sequence is the canonical pre-order.  It is kept
// as the oracle the placing encoder is held to.
func canonicalCodeStack(t *Tree) (string, []int32) {
	if t.N() == 0 {
		return ".", nil
	}
	first := make([]int32, t.N())
	second := make([]int32, t.N())
	info := make([]canonInfo, t.N())
	for _, v := range t.PostOrder() {
		l, r := t.left[v], t.right[v]
		switch {
		case l == None && r == None:
			first[v], second[v] = None, None
			info[v] = canonInfo{size: 1, height: 0, hash: canonMix(canonAbsent, canonAbsent)}
		case l == None || r == None:
			c := l
			if c == None {
				c = r
			}
			first[v], second[v] = c, None
			info[v] = canonInfo{size: info[c].size + 1, height: info[c].height + 1, hash: canonMix(info[c].hash, canonAbsent)}
		default:
			a, b := l, r
			if canonLess(info[r], info[l]) {
				a, b = r, l
			}
			first[v], second[v] = a, b
			info[v] = canonInfo{
				size:   info[a].size + info[b].size + 1,
				height: max(info[a].height, info[b].height) + 1,
				hash:   canonMix(info[a].hash, info[b].hash),
			}
		}
	}
	buf := make([]byte, 0, 3*t.N())
	order := make([]int32, 0, t.N())
	type frame struct {
		v     int32
		stage byte
	}
	stack := []frame{{t.root, 0}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		switch f.stage {
		case 0:
			f.stage = 1
			buf = append(buf, '(')
			order = append(order, f.v)
			if c := first[f.v]; c != None {
				stack = append(stack, frame{c, 0})
			} else {
				buf = append(buf, '.')
			}
		case 1:
			f.stage = 2
			if c := second[f.v]; c != None {
				stack = append(stack, frame{c, 0})
			} else {
				buf = append(buf, '.')
			}
		default:
			buf = append(buf, ')')
			stack = stack[:len(stack)-1]
		}
	}
	return string(buf), order
}

// sameCanonical fails the test when CanonicalCode's code or order
// differs from the stack oracle's.
func sameCanonical(t *testing.T, what string, tr *Tree) {
	t.Helper()
	code, order := tr.CanonicalCode()
	wcode, worder := canonicalCodeStack(tr)
	if code != wcode || !slices.Equal(order, worder) {
		t.Fatalf("%s: CanonicalCode gives %q %v, the stack oracle %q %v", what, code, order, wcode, worder)
	}
}

// relabelTest returns an isomorphic copy of t: node v becomes perm[v] and
// every node's children are swapped (left/right flipped), so both the
// numbering and the child order differ from the original.
func relabelTest(t *testing.T, tr *Tree, perm []int32, mirror bool) *Tree {
	t.Helper()
	n := tr.N()
	parent := make([]int32, n)
	side := make([]byte, n)
	for v := int32(0); v < int32(n); v++ {
		p := tr.Parent(v)
		if p == None {
			parent[perm[v]] = None
			continue
		}
		parent[perm[v]] = perm[p]
		s := byte(0)
		if tr.Right(p) == v {
			s = 1
		}
		if mirror {
			s ^= 1
		}
		side[perm[v]] = s
	}
	out, err := NewFromParents(parent, side)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func randPerm(n int, rng *rand.Rand) []int32 {
	perm := make([]int32, n)
	for i, v := range rng.Perm(n) {
		perm[i] = int32(v)
	}
	return perm
}

func TestCanonicalAgreesOnIsomorphic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, f := range Families {
		tr, err := Generate(f, 300, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		code, _ := tr.CanonicalCode()
		hash := tr.CanonicalHash()
		for trial := 0; trial < 3; trial++ {
			iso := relabelTest(t, tr, randPerm(tr.N(), rng), trial%2 == 0)
			if c, _ := iso.CanonicalCode(); c != code {
				t.Errorf("%s: isomorphic copy has different canonical code", f)
			}
			if iso.CanonicalHash() != hash {
				t.Errorf("%s: isomorphic copy has different canonical hash", f)
			}
		}
	}
}

func TestCanonicalOrderIsIsomorphism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr, err := Generate(FamilyRandom, 257, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	iso := relabelTest(t, tr, randPerm(tr.N(), rng), true)
	codeA, orderA := tr.CanonicalCode()
	codeB, orderB := iso.CanonicalCode()
	if codeA != codeB {
		t.Fatal("isomorphic trees disagree on canonical code")
	}
	// Map tr node -> iso node by canonical position and check that every
	// tree edge of tr maps to a tree edge of iso.
	m := make([]int32, tr.N())
	for i := range orderA {
		m[orderA[i]] = orderB[i]
	}
	adjacent := func(u *Tree, a, b int32) bool {
		return u.Parent(a) == b || u.Parent(b) == a
	}
	for v := int32(0); v < int32(tr.N()); v++ {
		if p := tr.Parent(v); p != None {
			if !adjacent(iso, m[v], m[p]) {
				t.Fatalf("edge %d-%d not preserved under canonical mapping", v, p)
			}
		}
	}
}

func TestCanonicalDistinguishesShapes(t *testing.T) {
	a := CompleteN(15)
	b := Path(15)
	ca, _ := a.CanonicalCode()
	cb, _ := b.CanonicalCode()
	if ca == cb {
		t.Error("complete tree and path share a canonical code")
	}
	if a.CanonicalHash() == b.CanonicalHash() {
		t.Error("complete tree and path share a canonical hash")
	}
}

// TestCanonicalClassCounts checks the number of canonical classes over
// all ordered shapes of n nodes against the Wedderburn–Etherington
// numbers (unordered binary trees): 1, 1, 2, 3, 6, 11, 23 for n = 1..7.
func TestCanonicalClassCounts(t *testing.T) {
	want := map[int]int{1: 1, 2: 1, 3: 2, 4: 3, 5: 6, 6: 11, 7: 23}
	for n := 1; n <= 7; n++ {
		classes := map[string]bool{}
		for _, tr := range AllShapes(n) {
			code, order := tr.CanonicalCode()
			if len(order) != n {
				t.Fatalf("n=%d: canonical order has %d nodes", n, len(order))
			}
			classes[code] = true
		}
		if len(classes) != want[n] {
			t.Errorf("n=%d: %d canonical classes, want %d", n, len(classes), want[n])
		}
	}
}

func TestCanonicalEmptyAndSingle(t *testing.T) {
	empty := &Tree{root: None}
	if code, order := empty.CanonicalCode(); code != "." || order != nil {
		t.Errorf("empty tree: code %q order %v", code, order)
	}
	single := Path(1)
	if code, _ := single.CanonicalCode(); code != "(..)" {
		t.Errorf("single node: code %q", code)
	}
}

// TestCanonicalMatchesStackOracle holds the placing encoder to the stack
// oracle on every family at sizes around the X-tree capacities, each
// tree as generated, decoded from its encoding (the parent-first branch)
// and relabelled with mirrored children (the PostOrder branch).
func TestCanonicalMatchesStackOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, f := range Families {
		for _, n := range []int{1, 2, 17, 100, 1008, 1009, 4080} {
			tr, err := Generate(f, n, rand.New(rand.NewSource(int64(n))))
			if err != nil {
				t.Fatal(err)
			}
			dec, err := Decode(tr.Encode())
			if err != nil {
				t.Fatal(err)
			}
			sameCanonical(t, string(f)+" generated", tr)
			sameCanonical(t, string(f)+" decoded", dec)
			sameCanonical(t, string(f)+" relabelled", relabelTest(t, tr, randPerm(n, rng), true))
		}
	}
}

// TestCanonicalOracleProperty: on random attachment trees of random size
// under a random relabelling, with or without mirroring, both encoders
// agree, and so do the decoded tree's.
func TestCanonicalOracleProperty(t *testing.T) {
	prop := func(seed int64, size uint16, mirror bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(size)%600
		tr := relabelTest(t, RandomAttachment(n, rng), randPerm(n, rng), mirror)
		dec, err := Decode(tr.Encode())
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range []*Tree{tr, dec} {
			code, order := u.CanonicalCode()
			wcode, worder := canonicalCodeStack(u)
			if code != wcode || !slices.Equal(order, worder) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCanonicalCodeAllocs pins CanonicalCode at n=4080.  The subtree
// keys, the placements and the code's buffer come from canonPool, so a
// decoded tree allocates the code's string and the order: 2.  A
// relabelled tree adds the plan's PostOrder walk, its order and its
// stack's growth: 8.  Under the race detector the pool may drop the
// scratch, so the gate allows its three arrays again.
func TestCanonicalCodeAllocs(t *testing.T) {
	decodedBudget, relabelledBudget := 2, 8
	if race.Enabled {
		decodedBudget, relabelledBudget = 5, 11
	}
	rng := rand.New(rand.NewSource(9))
	base := RandomAttachment(4080, rng)
	dec, err := Decode(base.Encode())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		tree   *Tree
		budget int
	}{
		{"decoded", dec, decodedBudget},
		{"relabelled", relabelTest(t, base, randPerm(base.N(), rng), true), relabelledBudget},
	} {
		allocs := testing.AllocsPerRun(20, func() { c.tree.CanonicalCode() })
		if allocs > float64(c.budget) {
			t.Errorf("CanonicalCode of a %s tree at n=4080 allocates %.0f times, budget %d", c.name, allocs, c.budget)
		}
		t.Logf("CanonicalCode of a %s tree at n=4080: %.0f allocs", c.name, allocs)
	}
}
