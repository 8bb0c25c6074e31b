package engine

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"xtreesim/internal/bintree"
	"xtreesim/internal/core"
)

// fillCache embeds nTrees distinct random guests of size n through e and
// returns them.
func fillCache(t *testing.T, e *Engine, nTrees, n int) []*bintree.Tree {
	t.Helper()
	trees := make([]*bintree.Tree, nTrees)
	for i := range trees {
		trees[i] = mustGen(t, bintree.FamilyRandom, n, int64(100+i))
	}
	for _, it := range e.EmbedBatch(context.Background(), trees) {
		if it.Err != nil {
			t.Fatal(it.Err)
		}
	}
	return trees
}

// TestSnapshotWarmRoundTrip is the persistence acceptance path: snapshot
// a warm engine, warm a cold one from the bytes, and the cold engine
// answers a previously-seen (isomorphic) guest with a cache hit and no
// compute.
func TestSnapshotWarmRoundTrip(t *testing.T) {
	hot := New(Config{Workers: 2, CacheSize: 64})
	defer hot.Close()
	trees := fillCache(t, hot, 5, 120)

	var buf bytes.Buffer
	n, err := hot.Snapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("snapshot wrote %d records, want 5", n)
	}

	cold := New(Config{Workers: 2, CacheSize: 64})
	defer cold.Close()
	ws, err := cold.Warm(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if ws.Loaded != 5 || ws.Skipped != 0 {
		t.Fatalf("warm loaded=%d skipped=%d, want 5 and 0", ws.Loaded, ws.Skipped)
	}
	st := cold.Stats()
	if st.WarmLoaded != 5 || st.CacheLen != 5 {
		t.Fatalf("stats warm_loaded=%d cache_len=%d, want 5 and 5", st.WarmLoaded, st.CacheLen)
	}

	// First request after warm: an isomorphic relabeling of a snapshotted
	// guest must be a cache hit, not a compute.
	it := cold.EmbedBatch(context.Background(), []*bintree.Tree{relabel(t, trees[2], 7)})[0]
	if it.Err != nil {
		t.Fatal(it.Err)
	}
	if !it.CacheHit {
		t.Fatal("first post-warm request missed the cache")
	}
	if miss := cold.Stats().Misses; miss != 0 {
		t.Fatalf("post-warm misses = %d, want 0", miss)
	}
	if err := core.CheckInvariants(it.Result); err != nil {
		t.Fatalf("warmed result fails invariants: %v", err)
	}
}

// TestWarmSkipsCorruptRecords: a snapshot with a bad record in the middle
// loads the sound records and counts the bad one, never failing.  A
// record is bad when a line is garbage, when its height names no X-tree,
// or when it sits in the default section on a host other than the
// guest's optimal one, which no default embed would answer on.
func TestWarmSkipsCorruptRecords(t *testing.T) {
	hot := New(Config{Workers: 1, CacheSize: 64})
	defer hot.Close()
	fillCache(t, hot, 3, 80)

	var buf bytes.Buffer
	if _, err := hot.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// A record is its entry line, the embedding header, the height line,
	// then the node and assign lines.
	for _, tc := range []struct {
		name   string
		offset int // line of the middle record to replace, from its entry line
		line   string
	}{
		{"assign garbage", 3, "assign garbage garbage"},
		{"height 99", 2, "height 99"},
		{"height above optimal", 2, fmt.Sprintf("height %d", core.OptimalHeight(80)+1)},
	} {
		lines := strings.Split(buf.String(), "\n")
		entries := 0
		for i, l := range lines {
			if strings.HasPrefix(l, "entry ") {
				entries++
				if entries == 2 {
					lines[i+tc.offset] = tc.line
				}
			}
		}
		cold := New(Config{Workers: 1, CacheSize: 64})
		ws, err := cold.Warm(strings.NewReader(strings.Join(lines, "\n")))
		st := cold.Stats()
		cold.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ws.Loaded != 2 || ws.Skipped != 1 {
			t.Errorf("%s: warm loaded=%d skipped=%d, want 2 and 1", tc.name, ws.Loaded, ws.Skipped)
		}
		if st.WarmSkipped != 1 {
			t.Errorf("%s: stats warm_skipped=%d, want 1", tc.name, st.WarmSkipped)
		}
	}
}

// TestWarmSkipsStaleCode: a record whose guest does not canonicalize to
// the recorded code is stale and must not enter the cache — remapping
// future isomorphic guests through it would be silently wrong.
func TestWarmSkipsStaleCode(t *testing.T) {
	hot := New(Config{Workers: 1, CacheSize: 64})
	defer hot.Close()
	fillCache(t, hot, 1, 60)

	var buf bytes.Buffer
	if _, err := hot.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "entry ") {
			lines[i] = "entry ((.)(..))" // a different (valid-looking) code
		}
	}
	cold := New(Config{Workers: 1, CacheSize: 64})
	defer cold.Close()
	ws, err := cold.Warm(strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	if ws.Loaded != 0 || ws.Skipped != 1 {
		t.Fatalf("warm loaded=%d skipped=%d, want 0 and 1", ws.Loaded, ws.Skipped)
	}
}

// TestWarmProfileMismatch: a section's records answer only their own
// profile.  A snapshot holding default, strict and height-pinned
// sections warms every record into a fresh engine, and each record
// answers a lookup under its own profile and no other.
func TestWarmProfileMismatch(t *testing.T) {
	hot := New(Config{Workers: 1, CacheSize: 64})
	defer hot.Close()
	ctx := context.Background()
	trees := []*bintree.Tree{
		mustGen(t, bintree.FamilyRandom, 60, 1),
		mustGen(t, bintree.FamilyRandom, 60, 2),
		mustGen(t, bintree.FamilyRandom, 60, 3),
	}
	profiles := []Profile{{}, {Strict: true}, {Height: 4}}
	for i, p := range profiles {
		if it := hot.EmbedBatchProfile(ctx, p, trees[i:i+1])[0]; it.Err != nil {
			t.Fatal(it.Err)
		}
	}
	var buf bytes.Buffer
	if _, err := hot.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	cold := New(Config{Workers: 1, CacheSize: 64})
	defer cold.Close()
	ws, err := cold.Warm(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if ws.Loaded != 3 || ws.Skipped != 0 {
		t.Fatalf("warm loaded=%d skipped=%d, want 3 and 0", ws.Loaded, ws.Skipped)
	}
	for i, p := range profiles {
		for j, q := range profiles {
			it := cold.EmbedBatchProfile(ctx, q, []*bintree.Tree{relabel(t, trees[i], 7)})[0]
			if it.Err != nil {
				t.Fatal(it.Err)
			}
			if it.CacheHit != (i == j) {
				t.Errorf("record warmed under %+v, looked up under %+v: hit=%v", p, q, it.CacheHit)
			}
		}
	}
}

// TestWarmCountsEveryRecord: every record lands in Loaded or Skipped,
// also in a section with no profile line, whose records are skipped
// because their options are unknown.
func TestWarmCountsEveryRecord(t *testing.T) {
	hot := New(Config{Workers: 1, CacheSize: 64})
	defer hot.Close()
	fillCache(t, hot, 2, 40)
	var buf bytes.Buffer
	if _, err := hot.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	section := buf.String()
	noProfile := strings.Replace(section, profileLine(false, -1)+"\n", "", 1)
	for _, tc := range []struct {
		name                 string
		text                 string
		wantLoaded, wantSkip int
	}{
		{"no profile line", noProfile, 0, 2},
		{"profile-less second section", section + noProfile, 2, 2},
		{"unknown profile", strings.Replace(section, "height=-1", "height=0", 1), 0, 2},
	} {
		e := New(Config{Workers: 1, CacheSize: 64})
		ws, err := e.Warm(strings.NewReader(tc.text))
		st := e.Stats()
		e.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ws.Loaded != tc.wantLoaded || ws.Skipped != tc.wantSkip {
			t.Errorf("%s: loaded=%d skipped=%d, want %d and %d", tc.name, ws.Loaded, ws.Skipped, tc.wantLoaded, tc.wantSkip)
		}
		if st.WarmLoaded != int64(ws.Loaded) || st.WarmSkipped != int64(ws.Skipped) {
			t.Errorf("%s: counters loaded=%d skipped=%d disagree with %+v", tc.name, st.WarmLoaded, st.WarmSkipped, ws)
		}
	}
}

// TestWarmTruncatedSnapshot: a snapshot cut off mid-record (a crash
// during the write) loads the complete records and skips the torn tail.
func TestWarmTruncatedSnapshot(t *testing.T) {
	hot := New(Config{Workers: 1, CacheSize: 64})
	defer hot.Close()
	fillCache(t, hot, 2, 60)

	var buf bytes.Buffer
	if _, err := hot.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	cut := strings.LastIndex(text, "end")
	cold := New(Config{Workers: 1, CacheSize: 64})
	defer cold.Close()
	ws, err := cold.Warm(strings.NewReader(text[:cut-10]))
	if err != nil {
		t.Fatal(err)
	}
	if ws.Loaded != 1 || ws.Skipped != 1 {
		t.Fatalf("truncated warm loaded=%d skipped=%d, want 1 and 1", ws.Loaded, ws.Skipped)
	}
}

// TestWarmBadHeader: a file that is not a snapshot at all is an error —
// the caller should know it pointed at the wrong file — but an engine
// with caching disabled reports that instead of panicking.
func TestWarmBadHeader(t *testing.T) {
	e := New(Config{Workers: 1, CacheSize: 64})
	defer e.Close()
	if _, err := e.Warm(strings.NewReader("not a snapshot\n")); err == nil {
		t.Error("foreign file accepted as a snapshot")
	}
	off := New(Config{Workers: 1, CacheSize: -1})
	defer off.Close()
	if _, err := off.Warm(strings.NewReader(snapshotMagic + "\n")); err == nil {
		t.Error("cache-disabled engine accepted a warm")
	}
	var buf bytes.Buffer
	if _, err := off.Snapshot(&buf); err == nil {
		t.Error("cache-disabled engine produced a snapshot")
	}
}

// TestSnapshotPreservesLRUOrder: warming replays records LRU-first, so
// the warmed cache evicts in the same order the hot cache would have.
func TestSnapshotPreservesLRUOrder(t *testing.T) {
	hot := New(Config{Workers: 1, CacheSize: 8, CacheShards: 1})
	defer hot.Close()
	trees := fillCache(t, hot, 3, 64)
	// Touch tree 0 so it is the most recently used.
	if it := hot.EmbedBatch(context.Background(), trees[:1])[0]; it.Err != nil || !it.CacheHit {
		t.Fatalf("refresh lookup: hit=%v err=%v", it.CacheHit, it.Err)
	}

	var buf bytes.Buffer
	if _, err := hot.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// The LRU-first order puts tree 0's record last.
	text := buf.String()
	code0, _ := trees[0].CanonicalCode()
	lastEntry := text[strings.LastIndex(text, "entry "):]
	if !strings.HasPrefix(lastEntry, "entry "+code0+"\n") {
		t.Error("most recently used entry is not last in the snapshot")
	}

	// Warm a capacity-2 cache: the two most recent survive, the oldest
	// is evicted during the replay.
	cold := New(Config{Workers: 1, CacheSize: 2, CacheShards: 1})
	defer cold.Close()
	if _, err := cold.Warm(strings.NewReader(text)); err != nil {
		t.Fatal(err)
	}
	if st := cold.Stats(); st.CacheLen != 2 || st.Evictions != 1 {
		t.Fatalf("warmed small cache len=%d evictions=%d, want 2 and 1", st.CacheLen, st.Evictions)
	}
	if it := cold.EmbedBatch(context.Background(), trees[:1])[0]; !it.CacheHit {
		t.Error("most recently used entry did not survive the capacity-2 warm")
	}
}

// FuzzWarm feeds arbitrary bytes to the snapshot parser: Warm must never
// panic, never corrupt the engine, must count every record exactly once,
// and anything it loaded must survive a re-snapshot/re-warm round trip.
func FuzzWarm(f *testing.F) {
	seedEngine := New(Config{Workers: 1, CacheSize: 16})
	seedTree := mustGen(f, bintree.FamilyRandom, 40, 1)
	if it := seedEngine.EmbedBatch(context.Background(), []*bintree.Tree{seedTree})[0]; it.Err != nil {
		f.Fatal(it.Err)
	}
	var seed bytes.Buffer
	if _, err := seedEngine.Snapshot(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add(snapshotMagic + "\nprofile strict=false height=-1\nentry ((.)(.))\nend\n")
	f.Add(snapshotMagic + "\nentry")
	f.Add("")
	// A multi-section snapshot: default, strict and height-pinned.
	for i, p := range []Profile{{Strict: true}, {Height: 3}} {
		tr := mustGen(f, bintree.FamilyRandom, 40, int64(2+i))
		if it := seedEngine.EmbedBatchProfile(context.Background(), p, []*bintree.Tree{tr})[0]; it.Err != nil {
			f.Fatal(it.Err)
		}
	}
	seed.Reset()
	if _, err := seedEngine.Snapshot(&seed); err != nil {
		f.Fatal(err)
	}
	seedEngine.Close()
	f.Add(seed.String())

	f.Fuzz(func(t *testing.T, data string) {
		e := New(Config{Workers: 1, CacheSize: 16})
		defer e.Close()
		ws, err := e.Warm(strings.NewReader(data))
		if err != nil {
			return // rejected outright; fine
		}
		st := e.Stats()
		records := 0
		for _, line := range strings.Split(data, "\n") {
			if strings.HasPrefix(line, "entry ") {
				records++
			}
		}
		if ws.Loaded+ws.Skipped != records {
			t.Fatalf("loaded %d + skipped %d records, the input holds %d", ws.Loaded, ws.Skipped, records)
		}
		if int64(ws.Skipped) != st.WarmSkipped || int64(ws.Loaded) != st.WarmLoaded {
			t.Fatalf("WarmStats %+v, engine counters loaded=%d skipped=%d", ws, st.WarmLoaded, st.WarmSkipped)
		}
		// Duplicate records collapse onto one cache key, so Loaded bounds
		// CacheLen from above; it can never undercount.
		if ws.Loaded < st.CacheLen {
			t.Fatalf("loaded %d records but cache holds %d", ws.Loaded, st.CacheLen)
		}
		// Whatever was loaded must re-serialize and re-load cleanly.
		var again bytes.Buffer
		n, err := e.Snapshot(&again)
		if err != nil || n != st.CacheLen {
			t.Fatalf("re-snapshot n=%d err=%v, want %d records", n, err, st.CacheLen)
		}
		e2 := New(Config{Workers: 1, CacheSize: 16})
		defer e2.Close()
		ws2, err := e2.Warm(bytes.NewReader(again.Bytes()))
		if err != nil || ws2.Loaded != n || ws2.Skipped != 0 {
			t.Fatalf("re-warm loaded=%d skipped=%d err=%v, want %d clean", ws2.Loaded, ws2.Skipped, err, n)
		}
	})
}
