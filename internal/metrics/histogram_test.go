package metrics

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewLatencyHistogram()
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("fresh histogram not empty: count=%d sum=%v", h.Count(), h.Sum())
	}
	if q := h.quantileLocked(0.5); q != 0 {
		t.Errorf("empty quantile = %v, want 0", q)
	}
	s := h.Summary()
	if s.Count != 0 || s.P50 != 0 || s.P99 != 0 || s.Max != 0 {
		t.Errorf("empty summary not zero: %+v", s)
	}
}

func TestHistogramSingleObservation(t *testing.T) {
	h := NewLatencyHistogram()
	h.Observe(0.25)
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if v := h.quantileLocked(q); v != 0.25 {
			t.Errorf("quantile(%v) = %v, want exactly 0.25 (min=max clamp)", q, v)
		}
	}
	if s := h.Summary(); s.Min != 0.25 || s.Max != 0.25 || s.Count != 1 {
		t.Errorf("summary %+v", s)
	}
}

func TestHistogramQuantileResolution(t *testing.T) {
	// Uniform values in [1ms, 1s]: every interpolated quantile must land
	// within one bucket width (~26% at 10 buckets/decade) of the truth.
	h := NewLatencyHistogram()
	rng := rand.New(rand.NewSource(7))
	const n = 20000
	vals := make([]float64, n)
	for i := range vals {
		v := math.Pow(10, -3+3*rng.Float64()) // log-uniform 1ms..1s
		vals[i] = v
		h.Observe(v)
	}
	if h.Count() != n {
		t.Fatalf("count %d", h.Count())
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		got := h.quantileLocked(q)
		// Exact empirical quantile.
		sorted := append([]float64(nil), vals...)
		sortFloats(sorted)
		want := sorted[int(q*float64(n))-1]
		if got < want/1.3 || got > want*1.3 {
			t.Errorf("quantile(%v) = %v, want within 1.3x of %v", q, got, want)
		}
	}
}

func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

func TestHistogramUnderOverflow(t *testing.T) {
	h := NewHistogram(1e-3, 1, 5)
	h.Observe(1e-9) // under lo: first bucket
	h.Observe(50)   // over hi: overflow bucket
	b := h.Buckets()
	if b[len(b)-1].Count != 2 {
		t.Fatalf("total %d, want 2", b[len(b)-1].Count)
	}
	if !math.IsInf(b[len(b)-1].Le, 1) {
		t.Errorf("last bucket bound %v, want +Inf", b[len(b)-1].Le)
	}
	if s := h.Summary(); s.Min != 1e-9 || s.Max != 50 {
		t.Errorf("extremes %+v", s)
	}
	// Quantiles stay clamped to the observed range even in edge buckets.
	if q := h.quantileLocked(0.99); q > 50 {
		t.Errorf("overflow quantile %v exceeds observed max", q)
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	h := NewLatencyHistogram()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		h.Observe(rng.Float64())
	}
	b := h.Buckets()
	prevLe := math.Inf(-1)
	var prevCount int64
	for i, bk := range b {
		if bk.Le <= prevLe {
			t.Fatalf("bucket %d bound %v not increasing", i, bk.Le)
		}
		if bk.Count < prevCount {
			t.Fatalf("bucket %d count %d not cumulative", i, bk.Count)
		}
		prevLe, prevCount = bk.Le, bk.Count
	}
	if b[len(b)-1].Count != 1000 {
		t.Errorf("final cumulative %d, want 1000", b[len(b)-1].Count)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	// Exercised under -race in CI: concurrent Observe/Summary/Buckets.
	h := NewLatencyHistogram()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				h.Observe(rng.Float64())
				if i%500 == 0 {
					_ = h.Summary()
					_ = h.Buckets()
				}
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != 8*2000 {
		t.Errorf("count %d, want %d", h.Count(), 8*2000)
	}
}

func TestHistogramRejectsBadLayout(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHistogram accepted lo >= hi")
		}
	}()
	NewHistogram(1, 1, 10)
}
