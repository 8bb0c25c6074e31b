package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"xtreesim/internal/bintree"
)

func mustWorkload(t *testing.T, name string, seed int64) *workload {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// sequence renders everything a run sends: warm pass, first fill batch,
// and the first n requests with their stream flags.
func sequence(w *workload, n int) []byte {
	var b bytes.Buffer
	for _, r := range w.warm {
		b.Write(r.body)
	}
	if w.fill != nil {
		b.Write(w.fill(0).body)
	}
	for i := 0; i < n; i++ {
		r := w.at(i)
		b.WriteString(r.route)
		if r.stream {
			b.WriteString("?stream=1")
		}
		b.Write(r.body)
	}
	return b.Bytes()
}

func TestSameSeedSameSequence(t *testing.T) {
	for _, d := range workloadDefs {
		a := mustWorkload(t, d.name, 7)
		b := mustWorkload(t, d.name, 7)
		b.pregenerate(20) // a prefix generated ahead must equal one generated on demand
		if !bytes.Equal(sequence(a, 40), sequence(b, 40)) {
			t.Errorf("%s: seed 7 gave two different request sequences", d.name)
		}
	}
}

// share checks an observed share against p within four standard errors.
func share(t *testing.T, what string, hits, n int, p float64) {
	t.Helper()
	got := float64(hits) / float64(n)
	if tol := 4 * math.Sqrt(p*(1-p)/float64(n)); math.Abs(got-p) > tol {
		t.Errorf("%s: share %.4f over %d, want %.4f ± %.4f", what, got, n, p, tol)
	}
}

func TestSeedChangesTreesNotShares(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		other := seed + 100
		for _, d := range workloadDefs {
			if bytes.Equal(sequence(mustWorkload(t, d.name, seed), 4), sequence(mustWorkload(t, d.name, other), 4)) {
				t.Errorf("%s: seeds %d and %d sent the same trees", d.name, seed, other)
			}
		}

		hot := mustWorkload(t, wlEmbedHot, seed)
		const n = 4000
		hosts := map[string]int{}
		for i := 0; i < n; i++ {
			r := hot.next(i)
			key := r.host
			if r.inj {
				key = "injective"
			}
			hosts[key]++
		}
		share(t, "embed-hot xtree", hosts[hostXTree], n, 0.74)
		share(t, "embed-hot hypercube", hosts[hostHypercube], n, 0.20)
		share(t, "embed-hot injective", hosts["injective"], n, 0.02)
		share(t, "embed-hot universal", hosts[hostUniversal], n, 0.04)

		cold := mustWorkload(t, wlEmbedCold, seed)
		sizes := map[int]int{}
		for i := 0; i < 300; i++ {
			for _, s := range cold.next(i).sizes {
				sizes[s]++
			}
		}
		for _, s := range coldSizes {
			share(t, "embed-cold size", sizes[s], 1200, 1.0/3)
		}

		sim := mustWorkload(t, wlSimulate, seed)
		var parts, streams, baseline int
		for i := 0; i < n; i++ {
			r := sim.next(i)
			if r.partitions == 2 {
				parts++
			}
			if r.stream {
				streams++
			}
			if r.baseline {
				baseline++
			}
		}
		share(t, "simulate partitions=2", parts, n, 0.25)
		share(t, "simulate stream=1", streams, n, 0.50)
		share(t, "simulate baseline", baseline, n, 13.0/128)
	}
}

// The simulate body pool has exact shares for every seed.
func TestSimulatePoolShares(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		sim := mustWorkload(t, wlSimulate, seed)
		seen := map[int]simulateRequest{}
		for i := 0; len(seen) < 128; i++ {
			if i > 100000 {
				t.Fatalf("seed %d: only %d distinct bodies", seed, len(seen))
			}
			r := sim.next(i)
			var req simulateRequest
			if err := json.Unmarshal(r.body, &req); err != nil {
				t.Fatal(err)
			}
			seen[r.shape] = req
		}
		faults, baseline := 0, 0
		workloads := map[string]int{}
		for _, req := range seen {
			if req.Faults != nil {
				faults++
			}
			if req.Baseline {
				baseline++
			}
			workloads[req.Workload]++
		}
		if faults != 32 || baseline != 13 {
			t.Errorf("seed %d: %d bodies with faults, %d with baseline; want 32 and 13", seed, faults, baseline)
		}
		for _, wl := range simWorkloads {
			if workloads[wl] != 32 {
				t.Errorf("seed %d: %d %s bodies, want 32", seed, workloads[wl], wl)
			}
		}
	}
}

func treesOf(t *testing.T, body []byte) []*bintree.Tree {
	t.Helper()
	var req embedRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	if req.Tree != nil {
		req.Trees = append(req.Trees, *req.Tree)
	}
	var trees []*bintree.Tree
	for _, ts := range req.Trees {
		tr, err := bintree.Decode(ts.Encoded)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tr)
	}
	return trees
}

func TestEmbedColdNeverRepeatsACanonicalCode(t *testing.T) {
	w := mustWorkload(t, wlEmbedCold, 3)
	seen := map[string]bool{}
	add := func(r request) {
		for _, tr := range treesOf(t, r.body) {
			code, _ := tr.CanonicalCode()
			if seen[code] {
				t.Fatalf("canonical code of a %d-node tree repeats", tr.N())
			}
			seen[code] = true
		}
	}
	for j := 0; j < 20; j++ {
		add(w.fill(j))
	}
	for i := 0; i < 150; i++ {
		add(w.next(i))
	}
}

// Every embed-hot request is a swapped copy of one of 64 distinct shapes.
func TestEmbedHotSwapsIsomorphicShapes(t *testing.T) {
	w := mustWorkload(t, wlEmbedHot, 5)
	shapes := treesOf(t, w.warm[0].body)
	codes := map[string]int{}
	for i, s := range shapes {
		code, _ := s.CanonicalCode()
		codes[code] = i
	}
	if len(shapes) != 64 || len(codes) != 64 {
		t.Fatalf("%d shapes, %d distinct", len(shapes), len(codes))
	}
	swapped := 0
	for i := 0; i < 200; i++ {
		r := w.next(i)
		tr := treesOf(t, r.body)[0]
		code, _ := tr.CanonicalCode()
		if s, ok := codes[code]; !ok || s != r.shape {
			t.Fatalf("request %d is not a copy of shape %d", i, r.shape)
		}
		if tr.Encode() != shapes[r.shape].Encode() {
			swapped++
		}
	}
	if swapped < 190 {
		t.Errorf("only %d of 200 requests sent a swapped copy", swapped)
	}
}
