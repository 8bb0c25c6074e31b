package server

import (
	"encoding/json"
	"testing"
)

// TestTreeSpecSeedPresence is the wire-format regression for the seed
// field: "seed": 0 and an absent seed used to be indistinguishable, so
// an explicit zero silently behaved like "pick something".  The pointer
// form must keep them apart through JSON decoding.
func TestTreeSpecSeedPresence(t *testing.T) {
	var explicit TreeSpec
	if err := json.Unmarshal([]byte(`{"family":"random","n":50,"seed":0}`), &explicit); err != nil {
		t.Fatal(err)
	}
	if explicit.Seed == nil || *explicit.Seed != 0 {
		t.Fatalf(`"seed":0 decoded to %v, want explicit zero`, explicit.Seed)
	}
	var omitted TreeSpec
	if err := json.Unmarshal([]byte(`{"family":"random","n":50}`), &omitted); err != nil {
		t.Fatal(err)
	}
	if omitted.Seed != nil {
		t.Fatalf("absent seed decoded to %v, want nil", omitted.Seed)
	}
}

// TestResolveExplicitSeedDeterministic: the same explicit seed — zero
// included — must always generate the same tree, so repeated requests
// collapse in the canonical cache.
func TestResolveExplicitSeedDeterministic(t *testing.T) {
	for _, seed := range []int64{0, 1, 42} {
		spec := TreeSpec{Family: "random", N: 300, Seed: Seed(seed)}
		a, err := spec.resolve(10000)
		if err != nil {
			t.Fatal(err)
		}
		b, err := spec.resolve(10000)
		if err != nil {
			t.Fatal(err)
		}
		if a.Encode() != b.Encode() {
			t.Fatalf("explicit seed %d generated two different trees", seed)
		}
	}
}

// TestResolveOmittedSeedVaries: with the seed omitted, repeated requests
// must draw fresh trees — "give me some random tree" should actually
// vary between calls instead of replaying the zero-seed stream.
func TestResolveOmittedSeedVaries(t *testing.T) {
	spec := TreeSpec{Family: "random", N: 300}
	const draws = 4
	encodings := map[string]bool{}
	for i := 0; i < draws; i++ {
		tr, err := spec.resolve(10000)
		if err != nil {
			t.Fatal(err)
		}
		encodings[tr.Encode()] = true
	}
	if len(encodings) < 2 {
		t.Fatalf("%d omitted-seed requests produced %d distinct trees; the derived seed is not varying",
			draws, len(encodings))
	}
	// And none of them may silently alias the explicit zero seed.
	zero, err := (&TreeSpec{Family: "random", N: 300, Seed: Seed(0)}).resolve(10000)
	if err != nil {
		t.Fatal(err)
	}
	if encodings[zero.Encode()] && len(encodings) == 1 {
		t.Fatal("omitted seed replayed the zero-seed tree")
	}
}
