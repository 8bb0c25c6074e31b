package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xtreesim/internal/bintree"
)

func TestSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tr := bintree.RandomAttachment(int(Capacity(3)), rng)
	res, err := EmbedXTree(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteResult(&sb, res); err != nil {
		t.Fatal(err)
	}
	back, err := ReadResult(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Host.Height() != res.Host.Height() {
		t.Errorf("height %d vs %d", back.Host.Height(), res.Host.Height())
	}
	if back.Guest.N() != res.Guest.N() {
		t.Errorf("guest size changed")
	}
	for v := range res.Assignment {
		if back.Assignment[v] != res.Assignment[v] {
			t.Fatalf("assignment of %d changed: %v vs %v", v, back.Assignment[v], res.Assignment[v])
		}
	}
	if err := CheckInvariants(back); err != nil {
		t.Errorf("round-tripped result fails invariants: %v", err)
	}
	if back.Dilation() != res.Dilation() {
		t.Errorf("dilation changed after round trip")
	}
	if back.MaxLoad() != res.MaxLoad() {
		t.Errorf("max load %d after the round trip, %d before", back.MaxLoad(), res.MaxLoad())
	}
}

func TestReadResultErrors(t *testing.T) {
	cases := []string{
		"",
		"garbage",
		"xtreesim-embedding v1\nheight 2\n", // no nodes
		"xtreesim-embedding v1\nnode 0 -1 0\nassign 0 0\n",            // no height
		"xtreesim-embedding v1\nheight 1\nnode 0 -1 0\n",              // missing assignment
		"xtreesim-embedding v1\nheight 1\nnode 0 -1 0\nassign 5 0",    // unknown node
		"xtreesim-embedding v1\nheight 1\nnode 0 -1 0\nassign 0 xy",   // bad vertex
		"xtreesim-embedding v1\nheight 0\nnode 0 -1 0\nassign 0 01",   // vertex outside host
		"xtreesim-embedding v1\nheight 1\nnode 1 -1 0\nassign 0 0",    // ids out of order
		"xtreesim-embedding v1\nheight 1\nnode 0 0 0\nassign 0 0",     // self-parent guest
		"xtreesim-embedding v1\nheight 1\nnode 0 -1 0\nbogus line",    // unknown line
		"xtreesim-embedding v1\nheight 1\nnode 0 -1 2\nassign 0 0",    // bad side
		"xtreesim-embedding v1\nheight 1\nnode 0 -1 0\nnode 1 -1 0\n", // two roots
	}
	for _, c := range cases {
		if _, err := ReadResult(strings.NewReader(c)); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
	// Minimal valid file.
	ok := "xtreesim-embedding v1\nheight 0\nnode 0 -1 0\nassign 0 ε\n"
	res, err := ReadResult(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("rejected valid file: %v", err)
	}
	if res.Guest.N() != 1 || !res.Assignment[0].IsRoot() {
		t.Error("parsed content wrong")
	}
}

// TestReadResultRejectsDuplicateAssign pins the fix for the silent
// last-writer-wins on repeated assign lines: the same node assigned twice
// is a malformed file, not a quiet overwrite.
func TestReadResultRejectsDuplicateAssign(t *testing.T) {
	in := "xtreesim-embedding v1\nheight 0\nnode 0 -1 0\nassign 0 ε\nassign 0 ε\n"
	if _, err := ReadResult(strings.NewReader(in)); err == nil {
		t.Fatal("duplicate assign line accepted")
	} else if !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("wrong error for duplicate assign: %v", err)
	}
}

// TestReadResultRunsChecker pins the re-validation contract of the doc
// comment: a syntactically valid file whose embedding violates the
// paper's conditions must be rejected, not returned.
func TestReadResultRunsChecker(t *testing.T) {
	// Load violation: a 17-node chain packed onto the single root vertex
	// of X(1) exceeds LoadTarget = 16.
	var sb strings.Builder
	sb.WriteString("xtreesim-embedding v1\nheight 1\n")
	for v := 0; v < 17; v++ {
		fmt.Fprintf(&sb, "node %d %d 0\n", v, v-1)
	}
	for v := 0; v < 17; v++ {
		fmt.Fprintf(&sb, "assign %d ε\n", v)
	}
	if _, err := ReadResult(strings.NewReader(sb.String())); err == nil {
		t.Error("overloaded vertex accepted")
	}

	// Adjacency violation: a guest edge mapped to two level-3 vertices on
	// opposite flanks of X(3), far outside the N-relation.
	in := "xtreesim-embedding v1\nheight 3\nnode 0 -1 0\nnode 1 0 0\nassign 0 000\nassign 1 111\n"
	if _, err := ReadResult(strings.NewReader(in)); err == nil {
		t.Error("edge outside the N-relation accepted")
	}
}
