package engine

import (
	"context"
	"reflect"
	"testing"

	"xtreesim/internal/bintree"
	"xtreesim/internal/core"
	"xtreesim/internal/race"
)

// hitAllocBudget is the allocation count of a one-tree default-profile
// cache hit at n=1008.  The key must stay the bare canonical code on this
// path, so the count may not grow.
const hitAllocBudget = 13

// decodedHitAllocBudget is the same hit for a tree decoded from the wire,
// as every server request's is: Decode's pre-order numbering lets
// CanonicalCode skip its PostOrder walk.
const decodedHitAllocBudget = 7

// TestCacheHitAllocs pins embed-hot's engine path: a one-tree EmbedBatch
// answered from the cache allocates no more than it did before profiles
// shared the engine, and a decoded tree's hit allocates less.
func TestCacheHitAllocs(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	ctx := context.Background()
	base := mustGen(t, bintree.FamilyRandom, 1008, 1)
	if it := e.EmbedBatch(ctx, []*bintree.Tree{base})[0]; it.Err != nil {
		t.Fatal(it.Err)
	}
	decoded, err := bintree.Decode(relabel(t, base, 3).Encode())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		tree   *bintree.Tree
		budget int
	}{
		{"relabelled", relabel(t, base, 2), hitAllocBudget},
		{"decoded", decoded, decodedHitAllocBudget},
	} {
		trees := []*bintree.Tree{c.tree}
		allocs := testing.AllocsPerRun(100, func() {
			if it := e.EmbedBatch(ctx, trees)[0]; it.Err != nil || !it.CacheHit {
				t.Fatalf("%s: hit=%v err=%v, want a cache hit", c.name, it.CacheHit, it.Err)
			}
		})
		budget := c.budget
		if race.Enabled { // the pool may drop CanonicalCode's scratch: its three arrays again
			budget += 3
		}
		if allocs > float64(budget) {
			t.Errorf("default-profile cache hit of a %s tree allocates %.0f times, budget %d",
				c.name, allocs, budget)
		}
		t.Logf("default-profile cache hit of a %s tree at n=%d: %.0f allocs", c.name, c.tree.N(), allocs)
	}
}

// TestProfilesKeySeparately: one shape requested as default, strict and
// height-pinned makes three cache entries.  A repeat under each profile
// hits its own entry, every result equals a direct embed with that
// profile's options, and no entry answers another profile.
func TestProfilesKeySeparately(t *testing.T) {
	e := New(Config{Workers: 2, CacheSize: 64})
	defer e.Close()
	ctx := context.Background()
	base := mustGen(t, bintree.FamilyRandom, 200, 5)
	profiles := []Profile{{}, {Strict: true}, {Height: 5}, {Strict: true, Height: 5}}
	for i, p := range profiles {
		it := e.EmbedBatchProfile(ctx, p, []*bintree.Tree{base})[0]
		if it.Err != nil {
			t.Fatalf("%+v: %v", p, it.Err)
		}
		if it.CacheHit || it.Coalesced {
			t.Fatalf("%+v: first request answered from another profile's entry", p)
		}
		if st := e.Stats(); st.CacheLen != i+1 || st.Misses != int64(i+1) {
			t.Fatalf("after %d profiles: cache_len=%d misses=%d", i+1, st.CacheLen, st.Misses)
		}
		want, err := core.EmbedXTreeContext(ctx, base, p.options())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(it.Result.Assignment, want.Assignment) || it.Result.Host.Height() != want.Host.Height() {
			t.Errorf("%+v: engine result differs from a direct embed with the same options", p)
		}
	}
	if h := (Profile{Height: 5}).options().Height; h != 5 {
		t.Fatalf("height profile resolved to height %d", h)
	}
	for _, p := range profiles {
		it := e.EmbedBatchProfile(ctx, p, []*bintree.Tree{relabel(t, base, 3)})[0]
		if it.Err != nil || !it.CacheHit {
			t.Errorf("%+v repeat: hit=%v err=%v, want a hit on its own entry", p, it.CacheHit, it.Err)
		}
		if it.Err == nil && p.Height > 0 && it.Result.Host.Height() != p.Height {
			t.Errorf("%+v repeat answered on X(%d)", p, it.Result.Host.Height())
		}
	}
	if st := e.Stats(); st.CacheLen != len(profiles) || st.Misses != int64(len(profiles)) {
		t.Fatalf("cache_len=%d misses=%d, want %d each", st.CacheLen, st.Misses, len(profiles))
	}
}

// TestProfileMatchingConfigUsesBareKey: a profile whose effective
// options are the theorem defaults keys on the bare canonical code, and
// any other profile on a prefixed key that strips back to the code.
func TestProfileMatchingConfigUsesBareKey(t *testing.T) {
	code, _ := bintree.Path(40).CanonicalCode()
	for _, p := range []Profile{{}, {Height: -3}} {
		if key := cacheKey(p.options(), code); key != code {
			t.Errorf("%+v keyed as %q, want the bare code", p, key)
		}
	}
	for _, p := range []Profile{{Strict: true}, {Height: 4}} {
		if key := cacheKey(p.options(), code); key == code || codeOf(key) != code {
			t.Errorf("%+v key %q must differ from the code and strip back to it", p, key)
		}
	}
}
