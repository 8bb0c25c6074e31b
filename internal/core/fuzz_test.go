package core

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"xtreesim/internal/bintree"
)

func FuzzReadResult(f *testing.F) {
	f.Add("xtreesim-embedding v1\nheight 0\nnode 0 -1 0\nassign 0 ε\n")
	f.Add("xtreesim-embedding v1\nheight 1\nnode 0 -1 0\nnode 1 0 0\nassign 0 0\nassign 1 1\n")
	f.Add("xtreesim-embedding v1\nheight 2\n")
	f.Add("garbage")
	f.Add("xtreesim-embedding v1\nheight 1\nnode 0 0 0\n")
	// Heights past bitstr.MaxLevel name no X-tree and must be errors.
	f.Add("xtreesim-embedding v1\nheight 99\nnode 0 -1 0\nassign 0 ε\n")
	f.Add("xtreesim-embedding v1\nheight 63\nnode 0 -1 0\nassign 0 ε\n")
	f.Fuzz(func(t *testing.T, s string) {
		res, err := ReadResult(strings.NewReader(s))
		if err != nil {
			return
		}
		// Anything accepted must be internally consistent: a valid
		// guest with a complete in-host assignment that survives a
		// write/read round trip.
		if res.Guest.N() == 0 {
			t.Fatal("accepted empty guest")
		}
		var sb strings.Builder
		if err := WriteResult(&sb, res); err != nil {
			t.Fatal(err)
		}
		back, err := ReadResult(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("round trip of accepted input failed: %v", err)
		}
		for v := range res.Assignment {
			if back.Assignment[v] != res.Assignment[v] {
				t.Fatal("round trip changed the assignment")
			}
		}
	})
}

// TestStrictModeSurfacesViolations drives the embedder into a state with
// condition-(3′) breakage (both balancing phases off on an adversarial
// guest) and checks Strict turns the counted event into a hard error.
func TestStrictModeSurfacesViolations(t *testing.T) {
	found := false
	for seed := int64(0); seed < 30 && !found; seed++ {
		tr := mustRandomTree(t, int(Capacity(8)), seed)
		loose, err := EmbedXTree(tr, Options{Height: -1, DisableAdjust: true, DisableLeveling: true})
		if err != nil {
			t.Fatal(err)
		}
		if loose.Stats.Cond3Violations == 0 {
			continue
		}
		found = true
		if _, err := EmbedXTree(tr, Options{Height: -1, Strict: true,
			DisableAdjust: true, DisableLeveling: true}); err == nil {
			t.Error("strict mode swallowed a condition (3') violation")
		}
	}
	if !found {
		t.Skip("no seed produced a violation; ablation got too good")
	}
}

func mustRandomTree(t *testing.T, n int, seed int64) *bintree.Tree {
	t.Helper()
	tr, err := bintree.Generate(bintree.FamilyRandom, n, randSource(seed))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func randSource(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// FuzzEmbed searches for a guest that breaks Theorem 1.  fuzzShape turns
// the bytes into a binary tree of exactly Capacity(r) nodes, r ≤ 4, and
// the oracle checks that guest three ways: a strict EmbedXTree passes
// CheckInvariants (Theorem 1), EmbedInjective is injective with dilation
// at most 11 (Theorem 2), and EmbedHypercube has load 16 and dilation at
// most 4 (Theorem 3).  The seeds are the seven families at r = 2 and 4.
func FuzzEmbed(f *testing.F) {
	f.Add([]byte{})
	for _, r := range []int{2, 4} {
		for _, fam := range bintree.Families {
			tr, err := bintree.Generate(fam, int(Capacity(r)), randSource(int64(r)))
			if err != nil {
				f.Fatal(err)
			}
			b := shapeBytes(r, tr)
			if fuzzShape(b).Encode() != tr.Encode() {
				f.Fatalf("the %s seed at r=%d does not decode to its family's shape", fam, r)
			}
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := fuzzShape(data)
		res, err := EmbedXTree(tr, Options{Height: -1, Strict: true})
		if err != nil {
			t.Fatalf("strict embed of %s: %v", tr.Encode(), err)
		}
		if err := CheckInvariants(res); err != nil {
			t.Fatalf("embed of %s: %v", tr.Encode(), err)
		}
		inj, err := EmbedInjective(res)
		if err != nil {
			t.Fatalf("injective embed of %s: %v", tr.Encode(), err)
		}
		if emb := inj.Embedding(); !emb.IsInjective() || emb.Dilation() > 11 {
			t.Fatalf("injective embed of %s: injective %v, dilation %d > 11",
				tr.Encode(), emb.IsInjective(), emb.Dilation())
		}
		if emb := EmbedHypercube(res).Embedding(); emb.MaxLoad() != LoadTarget || emb.Dilation() > 4 {
			t.Fatalf("hypercube embed of %s: load %d ≠ 16 or dilation %d > 4",
				tr.Encode(), emb.MaxLoad(), emb.Dilation())
		}
	})
}

// A slot is a free child position: the side (0 left, 1 right) of a node.
type slot struct {
	parent int32
	side   byte
}

// fuzzShape decodes bytes into a binary tree of exactly Capacity(r)
// nodes.  The first byte picks r ≤ 4.  Node 0 is the root, and each
// later node fills the free child slot its byte picks, counted back from
// the newest slot and taken modulo the number of free slots.  A byte
// with its top bit set joins the next byte, for slots further back.  Once
// the bytes run out, every node takes the newest slot.
func fuzzShape(data []byte) *bintree.Tree {
	r := 0
	if len(data) > 0 {
		r, data = int(data[0])%5, data[1:]
	}
	n := int(Capacity(r))
	parent := make([]int32, n)
	side := make([]byte, n)
	parent[0] = bintree.None
	free := []slot{{0, 0}, {0, 1}}
	for v := 1; v < n; v++ {
		back := 0
		if len(data) > 0 {
			back, data = int(data[0]), data[1:]
			if back >= 0x80 {
				back = (back & 0x7f) << 8
				if len(data) > 0 {
					back, data = back|int(data[0]), data[1:]
				}
			}
		}
		i := len(free) - 1 - back%len(free)
		s := free[i]
		free = append(free[:i], free[i+1:]...)
		parent[v], side[v] = s.parent, s.side
		free = append(free, slot{int32(v), 0}, slot{int32(v), 1})
	}
	tr, err := bintree.NewFromParents(parent, side)
	if err != nil {
		panic(err) // every slot is free when taken, so the shape is a tree
	}
	return tr
}

// shapeBytes encodes a tree of Capacity(r) nodes for fuzzShape, in
// preorder, so fuzzShape builds the same shape.
func shapeBytes(r int, tr *bintree.Tree) []byte {
	out := []byte{byte(r)}
	free := []slot{{0, 0}, {0, 1}}
	id := map[int32]int32{tr.Root(): 0}
	for _, v := range tr.PreOrder()[1:] {
		p := tr.Parent(v)
		s := slot{id[p], 1}
		if tr.Left(p) == v {
			s.side = 0
		}
		i := slices.Index(free, s)
		free = append(free[:i], free[i+1:]...)
		if back := len(free) - i; back < 0x80 {
			out = append(out, byte(back))
		} else {
			out = append(out, byte(0x80|back>>8), byte(back))
		}
		id[v] = int32(len(id))
		free = append(free, slot{id[v], 0}, slot{id[v], 1})
	}
	return out
}
