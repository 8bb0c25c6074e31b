// Package trace is the span tracer that follows one request through
// every layer of the serving stack: server middleware opens a root span,
// the engine adds queue-wait / canonical-encode / cache-lookup /
// embed-compute spans per batch item, the core embedder records its
// phases (host construction, every Lemma 2 separator call with depth and
// slack, the final redistribution), and the server's simulate span
// closes with the run's counters — one trace ID covers embed+simulate
// end to end.
//
// The design goals, in order:
//
//  1. Free when off.  Sampling is decided once per root; an unsampled
//     request carries a nil *Span, and every method on a nil span —
//     Child, SetAttr, End, Record — is an allocation-free no-op, so the
//     instrumented hot paths cost a nil check.
//  2. Bounded when on.  Completed spans land in a fixed-size ring
//     (oldest overwritten, overwrites counted), and per-phase durations
//     feed fixed-layout metrics.Histogram instances — memory does not
//     grow with traffic.
//  3. Exportable.  The ring renders as JSONL (one span per line, the
//     /debug/trace format) or as a Chrome trace-event file through
//     WriteChrome, which netsim.TraceRecorder shares, and the phase
//     histograms surface on /metrics.
//
// Propagation is by context.Context: ContextWithSpan/FromContext carry
// the current span across API boundaries, including the engine's
// worker-goroutine handoff (the job keeps the submitter's context).
package trace

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"xtreesim/internal/metrics"
)

// DefaultRingSize is the completed-span ring capacity when
// Config.RingSize is zero.
const DefaultRingSize = 8192

// Config configures a Tracer.
type Config struct {
	// SampleRate is the fraction of root spans that are sampled, in
	// [0, 1].  ≤ 0 samples nothing (every span is nil and free); ≥ 1
	// samples everything.  The decision is made once per root and
	// inherited by every child.
	SampleRate float64
	// RingSize bounds the completed spans kept for export; 0 means
	// DefaultRingSize.  When full, the oldest span is overwritten and
	// Dropped() counts it.
	RingSize int
}

// Attr is one span attribute.  Values are int64 only — depths, sizes,
// cycles, slacks — which keeps spans lean and the export schema closed.
type Attr struct {
	Key string
	Val int64
}

// Attrs is an attribute list, JSON-encoded as one object.
type Attrs []Attr

// Int is shorthand for constructing an Attr.
func Int(key string, v int64) Attr { return Attr{Key: key, Val: v} }

// Get returns the value of key and whether it is present.
func (a Attrs) Get(key string) (int64, bool) {
	for _, at := range a {
		if at.Key == key {
			return at.Val, true
		}
	}
	return 0, false
}

// SpanData is one completed span as stored in the ring and exported as
// one JSONL line.  IDs are 16-hex-char strings; times are Unix
// nanoseconds.
type SpanData struct {
	Trace  string `json:"trace"`
	Span   string `json:"span"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	Dur    int64  `json:"dur"`
	Attrs  Attrs  `json:"attrs,omitempty"`
}

// Tracer samples, collects and exports spans.  All methods are safe for
// concurrent use; a nil *Tracer is valid and never samples.
type Tracer struct {
	threshold uint64 // sample when mix(root counter) & 0xffffffff < threshold
	ringSize  int

	ids   atomic.Uint64 // span/trace ID counter
	roots atomic.Uint64 // root decisions taken (sampled or not)

	mu      sync.Mutex
	ring    []SpanData
	next    int // ring insertion cursor once the ring is full
	total   uint64
	dropped uint64
	phases  map[string]*metrics.Histogram
}

// New builds a tracer.  A SampleRate ≤ 0 yields a tracer that never
// samples — valid, attachable, and free on the hot path.
func New(cfg Config) *Tracer {
	rate := cfg.SampleRate
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	size := cfg.RingSize
	if size <= 0 {
		size = DefaultRingSize
	}
	return &Tracer{
		threshold: uint64(rate * float64(uint64(1)<<32)),
		ringSize:  size,
		phases:    make(map[string]*metrics.Histogram),
	}
}

// seed perturbs the sampling sequence and the ID generator, fixed so
// that traces are reproducible.
const seed = 0x9e3779b97f4a7c15

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed hash used
// for both the sampling decision and ID generation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newID returns a fresh nonzero 64-bit identifier.
func (t *Tracer) newID() uint64 {
	id := splitmix64(seed ^ t.ids.Add(1))
	if id == 0 {
		id = 1
	}
	return id
}

// FormatID renders an ID the way headers and exports carry it.
func FormatID(id uint64) string { return fmt.Sprintf("%016x", id) }

// ParseID parses a 16-hex-char ID (e.g. from an X-Trace-Id header).
func ParseID(s string) (uint64, bool) {
	if len(s) != 16 {
		return 0, false
	}
	var id uint64
	for i := 0; i < 16; i++ {
		c := s[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, false
		}
		id = id<<4 | d
	}
	if id == 0 {
		return 0, false
	}
	return id, true
}

// Root makes the sampling decision and, when sampled, starts a root span
// and returns a context carrying it.  Unsampled (or nil-tracer) calls
// return the context unchanged and a nil span — the entire request then
// traces at the cost of nil checks, with zero allocations.
func (t *Tracer) Root(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil || t.threshold == 0 {
		return ctx, nil
	}
	n := t.roots.Add(1)
	if splitmix64(seed+n)&0xffffffff >= t.threshold {
		return ctx, nil
	}
	return t.forceRoot(ctx, name, t.newID())
}

// RootWithID starts a root span that joins an externally supplied trace
// ID (e.g. an incoming X-Trace-Id header), bypassing the sampling
// decision: a caller that tagged its request asked to be traced.
func (t *Tracer) RootWithID(ctx context.Context, name string, traceID uint64) (context.Context, *Span) {
	if t == nil || traceID == 0 {
		return ctx, nil
	}
	return t.forceRoot(ctx, name, traceID)
}

func (t *Tracer) forceRoot(ctx context.Context, name string, traceID uint64) (context.Context, *Span) {
	s := &Span{
		tr:      t,
		name:    name,
		traceID: traceID,
		spanID:  t.newID(),
		start:   time.Now(),
	}
	return ContextWithSpan(ctx, s), s
}

// record files a completed span into the ring and its phase histogram.
func (t *Tracer) record(sd SpanData, durSeconds float64) {
	t.mu.Lock()
	if len(t.ring) < t.ringSize {
		t.ring = append(t.ring, sd)
	} else {
		t.ring[t.next] = sd
		t.next = (t.next + 1) % t.ringSize
		t.dropped++
	}
	t.total++
	h, ok := t.phases[sd.Name]
	if !ok {
		h = newPhaseHistogram()
		t.phases[sd.Name] = h
	}
	t.mu.Unlock()
	h.Observe(durSeconds)
}

// newPhaseHistogram builds the per-phase latency layout: log-spaced from
// 1µs to 10s, 10 buckets per decade — finer at the bottom than the HTTP
// default because embedder phases live well under 100µs.
func newPhaseHistogram() *metrics.Histogram { return metrics.NewHistogram(1e-6, 10, 10) }

// Spans snapshots the ring, oldest first.
func (t *Tracer) Spans() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanData, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Recorded returns the total spans ever completed; Dropped how many of
// them were overwritten in the ring before export.
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped returns the spans overwritten by ring wrap-around.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// PhaseHistograms snapshots the per-phase duration histograms, keyed by
// span name.  The histograms are live — callers read, never write.
func (t *Tracer) PhaseHistograms() map[string]*metrics.Histogram {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]*metrics.Histogram, len(t.phases))
	for k, v := range t.phases {
		out[k] = v
	}
	return out
}

// Span is one in-progress operation.  A nil *Span is the unsampled case:
// every method is a no-op, so instrumentation sites never branch on
// "tracing on?" themselves.
type Span struct {
	tr      *Tracer
	name    string
	traceID uint64
	spanID  uint64
	parent  uint64
	start   time.Time

	mu    sync.Mutex
	attrs Attrs
	ended bool
}

// TraceID returns the 16-hex-char trace ID, or "" on a nil span.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return FormatID(s.traceID)
}

// SetAttr attaches an int64 attribute and returns the span for chaining.
// Setting a key again replaces its value, so the exported object never
// repeats a key (core.EmbedXTreeContext stamps "n" on its caller's span,
// which the caller may restate).
func (s *Span) SetAttr(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Val = v
			return s
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Val: v})
	return s
}

// Child starts a sub-span of s beginning now.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.ChildAt(name, time.Now())
}

// ChildAt starts a sub-span with an explicit start time (for operations
// whose beginning predates the instrumentation point, like queue wait).
func (s *Span) ChildAt(name string, start time.Time) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		tr:      s.tr,
		name:    name,
		traceID: s.traceID,
		spanID:  s.tr.newID(),
		parent:  s.spanID,
		start:   start,
	}
}

// Record files an already-completed child span in one call.
func (s *Span) Record(name string, start, end time.Time, attrs ...Attr) {
	if s == nil {
		return
	}
	c := s.ChildAt(name, start)
	if len(attrs) > 0 {
		c.mu.Lock()
		c.attrs = append(c.attrs, attrs...)
		c.mu.Unlock()
	}
	c.EndAt(end)
}

// End completes the span now.  Ending twice records once.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndAt(time.Now())
}

// EndAt completes the span at an explicit time.
func (s *Span) EndAt(end time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()
	dur := end.Sub(s.start)
	if dur < 0 {
		dur = 0
	}
	sd := SpanData{
		Trace: FormatID(s.traceID),
		Span:  FormatID(s.spanID),
		Name:  s.name,
		Start: s.start.UnixNano(),
		Dur:   dur.Nanoseconds(),
		Attrs: attrs,
	}
	if s.parent != 0 {
		sd.Parent = FormatID(s.parent)
	}
	s.tr.record(sd, dur.Seconds())
}

type ctxKey struct{}

// ContextWithSpan returns a context carrying s.  A nil span returns ctx
// unchanged, so unsampled paths never allocate a context.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// Start begins a child of the context's span and returns a context
// carrying it.  On an unsampled context it returns (ctx, nil) for free.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := parent.Child(name)
	return ContextWithSpan(ctx, s), s
}

// Record files a completed child span of the context's span; a no-op on
// unsampled contexts.
func Record(ctx context.Context, name string, start, end time.Time, attrs ...Attr) {
	FromContext(ctx).Record(name, start, end, attrs...)
}
