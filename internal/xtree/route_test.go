package xtree

import (
	"fmt"
	"math/rand"
	"testing"

	"xtreesim/internal/bitstr"
)

func TestRouteIsShortest(t *testing.T) {
	x := New(6)
	g := x.AsGraph()
	rng := rand.New(rand.NewSource(101))
	n := x.NumVertices()
	for trial := 0; trial < 400; trial++ {
		a := bitstr.FromID(rng.Int63n(n))
		b := bitstr.FromID(rng.Int63n(n))
		want := g.Distance(int(a.ID()), int(b.ID()))
		steps := 0
		for cur := a; cur != b; steps++ {
			if steps == want {
				t.Fatalf("NextHop from %v toward %v takes more than the shortest %d steps", a, b, want)
			}
			next := x.NextHop(cur, b)
			if !g.HasEdge(int(cur.ID()), int(next.ID())) {
				t.Fatalf("route step %v-%v not an edge", cur, next)
			}
			cur = next
		}
		if steps != want {
			t.Fatalf("NextHop reached %v from %v in %d steps, shortest %d", b, a, steps, want)
		}
	}
}

func TestRouteTrivial(t *testing.T) {
	x := New(3)
	a := bitstr.MustParse("010")
	if nh := x.NextHop(a, a); nh != a {
		t.Errorf("self next hop = %v", nh)
	}
}

func TestNextHopIDStepsCloser(t *testing.T) {
	x := New(8)
	a := bitstr.MustParse("00000000").ID()
	b := bitstr.MustParse("11111111").ID()
	first := x.NextHopID(a, b)
	if second := x.NextHopID(a, b); first != second {
		t.Fatal("NextHopID not deterministic")
	}
	if first != x.NextHop(bitstr.FromID(a), bitstr.FromID(b)).ID() {
		t.Fatal("NextHopID disagrees with NextHop")
	}
	// The hop must reduce the distance.
	da := x.Distance(bitstr.FromID(a), bitstr.FromID(b))
	dn := x.Distance(bitstr.FromID(first), bitstr.FromID(b))
	if dn != da-1 {
		t.Fatalf("next hop distance %d, want %d", dn, da-1)
	}
}

// TestRouterConcurrentUse runs the stateless NextHopID from several
// goroutines (under -race this also proves it shares no state) and checks
// every answer against a serial run.
func TestRouterConcurrentUse(t *testing.T) {
	x := New(9)
	n := x.NumVertices()
	rng := rand.New(rand.NewSource(102))
	pairs := make([][2]int64, 200)
	want := make([]int64, len(pairs))
	for i := range pairs {
		pairs[i] = [2]int64{rng.Int63n(n), rng.Int63n(n)}
		want[i] = x.NextHopID(pairs[i][0], pairs[i][1])
	}
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			for i, p := range pairs {
				if got := x.NextHopID(p[0], p[1]); got != want[i] {
					errs <- fmt.Errorf("NextHopID(%d,%d) = %d concurrently, %d serially", p[0], p[1], got, want[i])
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
