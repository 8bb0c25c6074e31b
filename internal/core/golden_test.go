package core

// golden_test.go pins the embedder's exact output.  Every case embeds one
// generated guest under one option set and hashes what came out — the
// host height, every node's host vertex and the Stats, or the error — so
// a refactor that changes any placement or counter shows up as a diff.
// Regenerate (only for an intended change of the algorithm's output) with:
//
//	go test ./internal/core/ -run TestEmbedGolden -update
import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xtreesim/internal/bintree"
)

var update = flag.Bool("update", false, "rewrite golden files")

const embedGoldenFile = "embed_golden.txt"

// goldenOptionSets are the option profiles the golden file covers: the
// theorem default, strict mode, a host one level above optimal, and the
// ablations the experiments run.
var goldenOptionSets = []struct {
	name string
	opts func(n int) Options
}{
	{"default", func(int) Options { return DefaultOptions() }},
	{"strict", func(int) Options { return Options{Height: -1, Strict: true} }},
	{"height+1", func(n int) Options { return Options{Height: OptimalHeight(n) + 1} }},
	{"noadjust+imbalance", func(int) Options {
		return Options{Height: -1, DisableAdjust: true, ImbalanceStats: true}
	}},
	{"noleveling", func(int) Options { return Options{Height: -1, DisableLeveling: true} }},
	{"strict+noleveling", func(int) Options {
		return Options{Height: -1, Strict: true, DisableLeveling: true}
	}},
}

// embedDigest hashes one embed's observable output.
func embedDigest(res *Result, err error) string {
	h := sha256.New()
	if err != nil {
		fmt.Fprintf(h, "error %s", err)
		return fmt.Sprintf("err:%x", h.Sum(nil)[:12])
	}
	fmt.Fprintf(h, "height %d\n", res.Host.Height())
	for v, a := range res.Assignment {
		fmt.Fprintf(h, "%d %d %d\n", v, a.Level, a.Index)
	}
	fmt.Fprintf(h, "%+v\n", res.Stats)
	return fmt.Sprintf("ok:%x", h.Sum(nil)[:12])
}

// TestEmbedGolden embeds every family at a few sizes (exact capacities and
// slack instances), two seeds and each golden option set, and compares
// the digests line by line against testdata/embed_golden.txt.
func TestEmbedGolden(t *testing.T) {
	var got bytes.Buffer
	for _, fam := range bintree.Families {
		for _, n := range []int{1, 17, 100, 1000, int(Capacity(6)), 3000} {
			for seed := int64(1); seed <= 2; seed++ {
				tr, err := bintree.Generate(fam, n, randSource(seed))
				if err != nil {
					t.Fatal(err)
				}
				for _, set := range goldenOptionSets {
					res, err := EmbedXTree(tr, set.opts(n))
					fmt.Fprintf(&got, "%s n=%d seed=%d %s %s\n", fam, n, seed, set.name, embedDigest(res, err))
				}
			}
		}
	}
	path := filepath.Join("testdata", embedGoldenFile)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	wantLines := lines(want)
	gotLines := lines(got.Bytes())
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden has %d cases, the run produced %d", len(wantLines), len(gotLines))
	}
	drift := 0
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			drift++
			if drift <= 10 {
				t.Errorf("embedding drifted from golden:\ngot:  %s\nwant: %s", gotLines[i], wantLines[i])
			}
		}
	}
	if drift > 10 {
		t.Errorf("%d of %d cases drifted in total", drift, len(gotLines))
	}
}

func lines(b []byte) []string {
	var out []string
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			out = append(out, s)
		}
	}
	return out
}
