package netsim

import (
	"strings"
	"testing"
)

// TestOversizedHostError pins the cap: a host over MaxHostVertices that
// is not a tree, with no NextHop router, must fail with an error naming
// the cap and the escape hatch instead of allocating the V² tables.  A
// path of the same size is a tree and routes without tables.
func TestOversizedHostError(t *testing.T) {
	n := MaxHostVertices + 10
	g := pathHost(n)
	g.AddEdge(n-1, 0) // a ring: not a tree
	_, err := Run(Config{Host: g, Place: []int32{0, 1}}, &testStream{n: 1})
	if err == nil {
		t.Fatal("no error for oversized host")
	}
	for _, want := range []string{"4096", "NextHop"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	// The escape hatch works: the same host with a router simulates.
	hop := func(cur, dst int32) int32 {
		if dst > cur {
			return cur + 1
		}
		return cur - 1
	}
	place := []int32{0, 42}
	if _, err := Run(Config{Host: g, Place: place, NextHop: hop}, &testStream{n: 1}); err != nil {
		t.Fatalf("NextHop escape hatch failed: %v", err)
	}
	// The path needs no escape hatch: one message end to end takes one
	// cycle per link.
	res, err := Run(Config{Host: pathHost(n), Place: []int32{0, int32(n - 1)}}, &testStream{n: 1})
	if err != nil {
		t.Fatalf("oversized tree host: %v", err)
	}
	if res.Delivered != 1 || res.Cycles != n-1 || res.HopsTotal != n-1 {
		t.Errorf("oversized tree host: %+v, want 1 delivery in %d cycles and hops", res, n-1)
	}
}
