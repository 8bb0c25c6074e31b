package metrics

// histogram.go is the latency-measurement side of the package: a
// fixed-layout, log-spaced histogram built for serving workloads.  The
// serving subsystem (internal/server) records one observation per HTTP
// request and exports the buckets in Prometheus text format, and the
// tracer keeps one per span name.  Both need cheap concurrent Observe
// and quantile extraction (p50/p95/p99) good to one bucket's
// resolution.

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Bucket is one cumulative histogram bucket: Count observations were ≤ Le.
// The last bucket has Le = +Inf and Count equal to the total.
type Bucket struct {
	Le    float64
	Count int64
}

// HistogramSummary is a point-in-time digest of a histogram.
type HistogramSummary struct {
	Count         int64
	Sum           float64
	Min, Max      float64 // exact extremes, 0 when Count == 0
	P50, P95, P99 float64 // interpolated within buckets
}

// Histogram counts float64 observations (typically seconds) in fixed
// log-spaced buckets: PerDecade buckets per factor of ten between Lo and
// Hi, plus an underflow bucket below Lo and an overflow bucket above Hi.
// The layout is fixed at construction.  All methods are safe for
// concurrent use.
type Histogram struct {
	bounds []float64 // upper bounds of all buckets but the overflow

	mu       sync.Mutex
	counts   []int64 // len(bounds)+1; last is overflow
	count    int64
	sum      float64
	min, max float64
}

// NewHistogram builds a histogram with perDecade log-spaced buckets per
// decade spanning [lo, hi].  Panics if lo or hi is non-positive, lo ≥ hi,
// or perDecade < 1 — the layout is a compile-time choice, not input.
func NewHistogram(lo, hi float64, perDecade int) *Histogram {
	if lo <= 0 || hi <= lo || perDecade < 1 {
		panic(fmt.Sprintf("metrics: invalid histogram layout lo=%v hi=%v perDecade=%d", lo, hi, perDecade))
	}
	var bounds []float64
	for i := 0; ; i++ {
		b := lo * math.Pow(10, float64(i)/float64(perDecade))
		bounds = append(bounds, b)
		if b >= hi {
			break
		}
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]int64, len(bounds)+1),
	}
}

// NewLatencyHistogram builds the serving default: 10 buckets per decade
// from 100µs to 100s (~1.26× resolution), expressed in seconds.
func NewLatencyHistogram() *Histogram { return NewHistogram(100e-6, 100, 10) }

// Observe records one observation.  NaN observations are dropped.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v; len(bounds) = overflow
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if h.count == 1 || v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// quantileLocked returns the q-th quantile (q in [0,1]) by linear
// interpolation inside the covering bucket, clamped to the exact observed
// [min, max]; 0 when the histogram is empty.  The caller holds h.mu.
func (h *Histogram) quantileLocked(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := q * float64(h.count)
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.max
			if i < len(h.bounds) {
				hi = h.bounds[i]
			}
			frac := (rank - float64(cum)) / float64(c)
			v := lo + (hi-lo)*frac
			// The bucket bounds outrange the data at the edges;
			// the exact extremes are tighter.
			return math.Min(math.Max(v, h.min), h.max)
		}
		cum += c
	}
	return h.max
}

// Summary digests the histogram in one lock acquisition.
func (h *Histogram) Summary() HistogramSummary {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSummary{
		Count: h.count,
		Sum:   h.sum,
		Min:   h.min,
		Max:   h.max,
		P50:   h.quantileLocked(0.50),
		P95:   h.quantileLocked(0.95),
		P99:   h.quantileLocked(0.99),
	}
}

// Buckets returns the cumulative bucket counts in Prometheus histogram
// convention: ascending upper bounds with a final +Inf bucket whose count
// equals Count().
func (h *Histogram) Buckets() []Bucket {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Bucket, len(h.counts))
	var cum int64
	for i, c := range h.counts {
		cum += c
		le := math.Inf(1)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		out[i] = Bucket{Le: le, Count: cum}
	}
	return out
}
