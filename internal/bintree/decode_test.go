package bintree

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// sameTree reports whether two trees have the same shape and numbering.
func sameTree(t, u *Tree) bool {
	return t.root == u.root && slices.Equal(t.parent, u.parent) &&
		slices.Equal(t.left, u.left) && slices.Equal(t.right, u.right)
}

// decodeRecursive is the parser Decode replaced: a recursive closure
// parses into growing parent and side slices, and NewFromParents copies
// and validates them.  It is kept as the oracle FuzzDecode holds the
// one-pass parser to.
func decodeRecursive(s string) (*Tree, error) {
	var parent []int32
	var side []byte
	pos := 0
	var rec func(p int32, sd byte) error
	rec = func(p int32, sd byte) error {
		if pos >= len(s) {
			return fmt.Errorf("bintree: unexpected end of input")
		}
		switch s[pos] {
		case '.':
			pos++
			return nil
		case '(':
			pos++
			v := int32(len(parent))
			parent = append(parent, p)
			side = append(side, sd)
			if err := rec(v, 0); err != nil {
				return err
			}
			if err := rec(v, 1); err != nil {
				return err
			}
			if pos >= len(s) || s[pos] != ')' {
				return fmt.Errorf("bintree: missing ')' at %d", pos)
			}
			pos++
			return nil
		default:
			return fmt.Errorf("bintree: unexpected %q at %d", s[pos], pos)
		}
	}
	if s == "" {
		return &Tree{root: None}, nil
	}
	if err := rec(None, 0); err != nil {
		return nil, err
	}
	if pos != len(s) {
		return nil, fmt.Errorf("bintree: trailing input at %d", pos)
	}
	return NewFromParents(parent, side)
}

// FuzzDecode holds Decode to the recursive oracle: both accept exactly
// the same inputs and return equal trees, whose canonical code and order
// match the PostOrder branch of CanonicalCode and, on both branches, the
// stack encoder it replaced (canonicalCodeStack).  Whatever decodes must
// also re-encode to itself and be a real tree.
func FuzzDecode(f *testing.F) {
	for _, s := range []string{
		"(..)", "((..)(..))", "((..).)", ".", "((", "x",
		"", "(..))", "(..)(..)", "(...)", "(.(..))", ")", "..", "(.)",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tr, err := Decode(s)
		want, werr := decodeRecursive(s)
		if (err == nil) != (werr == nil) {
			t.Fatalf("Decode(%q) error %v, oracle error %v", s, err, werr)
		}
		if err != nil {
			return
		}
		if !sameTree(tr, want) {
			t.Fatalf("Decode(%q) differs from the oracle's tree", s)
		}
		if !tr.parentFirst || (want.N() > 0 && !want.parentFirst) {
			t.Fatalf("Decode(%q): pre-order tree not marked parent-first (decode %v, oracle %v)",
				s, tr.parentFirst, want.parentFirst)
		}
		if tr.N() > 0 && !tr.AsGraph().IsTree() {
			t.Fatalf("Decode(%q) produced a non-tree", s)
		}
		if tr.Encode() != s && !(s == "" && tr.N() == 0) {
			t.Fatalf("Decode(%q).Encode() = %q", s, tr.Encode())
		}
		post := *want
		post.parentFirst = false
		code, order := tr.CanonicalCode()
		wcode, worder := post.CanonicalCode()
		if code != wcode || !slices.Equal(order, worder) {
			t.Fatalf("Decode(%q): canonical code %q order %v, PostOrder branch %q %v",
				s, code, order, wcode, worder)
		}
		for _, u := range []*Tree{tr, &post} {
			if scode, sorder := canonicalCodeStack(u); code != scode || !slices.Equal(order, sorder) {
				t.Fatalf("Decode(%q) (parent-first %v): canonical code %q order %v, stack oracle %q %v",
					s, u.parentFirst, code, order, scode, sorder)
			}
		}
	})
}

// decodeAllocs is Decode's allocation count: the Tree and its three
// arrays, whatever the size or shape.
const decodeAllocs = 4

// TestDecodeAllocs pins Decode to a constant number of allocations: the
// parse sizes its arrays once and needs no stack, copy or validation.
func TestDecodeAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1008, 4080} {
		for _, tr := range []*Tree{RandomAttachment(n, rng), Path(n)} {
			enc := tr.Encode()
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := Decode(enc); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > decodeAllocs {
				t.Errorf("Decode at n=%d (height %d) allocates %.0f times, want %d",
					n, tr.Height(), allocs, decodeAllocs)
			}
			t.Logf("Decode at n=%d (height %d): %.0f allocs", n, tr.Height(), allocs)
		}
	}
}

// TestNewFromParentsAllocs pins the constructor every generator tree goes
// through at n=4080: the three arrays, the Tree and validate's state
// array, and nothing per node.
func TestNewFromParentsAllocs(t *testing.T) {
	const budget = 5
	rng := rand.New(rand.NewSource(2))
	for _, tr := range []*Tree{RandomAttachment(4080, rng), Path(4080)} {
		parent := make([]int32, tr.N())
		for v := range parent {
			parent[v] = tr.Parent(int32(v))
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := NewFromParents(parent, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > budget {
			t.Errorf("NewFromParents at n=4080 (height %d) allocates %.0f times, want %d",
				tr.Height(), allocs, budget)
		}
		t.Logf("NewFromParents at n=4080 (height %d): %.0f allocs", tr.Height(), allocs)
	}
}
