package core

import (
	"math/rand"
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
