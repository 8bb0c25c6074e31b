package xtreesim

// tracing.go surfaces the span tracer (internal/trace): lightweight
// context-propagated tracing across the serving stack — server request
// roots, engine queue/cache/compute phases, the embedder's separator and
// host-build phases, and a simulate span carrying the run's counters.
// One trace covers embed + simulate end to end; per-event simulator
// detail comes from the observers (WithObserver, WithTrace).
//
// Two entry points matter to library callers:
//
//	tr := xtreesim.NewTracer(1)                          // sample everything
//	ctx, root := tr.Root(context.Background(), "job")
//	res, _ := xtreesim.EmbedContext(ctx, tree)           // phase spans under root
//	root.End()
//	xtreesim.TraceExport(os.Stdout, tr, "jsonl")
//
// or, without managing contexts, WithTracing hands Embed a tracer that
// opens one root span per call.

import (
	"context"
	"fmt"
	"io"

	"xtreesim/internal/core"
	"xtreesim/internal/trace"
)

type (
	// Tracer samples, records and exports spans.  Create with NewTracer
	// or NewTracerConfig; a nil *Tracer is valid and records nothing.
	Tracer = trace.Tracer
	// TracerConfig is the full tracer configuration (sample rate, ring
	// size, ID seed) for NewTracerConfig.
	TracerConfig = trace.Config
	// TraceSpan is one live span; all methods are nil-safe, so unsampled
	// paths cost nothing.
	TraceSpan = trace.Span
	// SpanData is one completed span as exported by Tracer.Spans,
	// WriteJSONL and /debug/trace.
	SpanData = trace.SpanData
)

// NewTracer returns a tracer sampling the given fraction of roots
// (0 disables, 1 traces everything) with the default ring size.
func NewTracer(sampleRate float64) *Tracer {
	return trace.New(trace.Config{SampleRate: sampleRate})
}

// NewTracerConfig returns a tracer with full control over ring size and
// ID seed.
func NewTracerConfig(cfg TracerConfig) *Tracer { return trace.New(cfg) }

// SpanFromContext returns the context's live span, or nil — handy for
// opening a simulate span under an embedding trace by hand.
func SpanFromContext(ctx context.Context) *TraceSpan { return trace.FromContext(ctx) }

// WithTracing hands Embed a tracer: each call opens a root span named
// "embed" (subject to the tracer's sampling) with the construction's
// phase spans below it.  Callers who already carry a span in a context
// should use EmbedContext instead; a context span takes precedence.
func WithTracing(tr *Tracer) EmbedOption {
	return func(o *EmbedConfig) { o.Tracer = tr }
}

// EmbedContext is Embed under the caller's context: when the context
// carries a sampled span (Tracer.Root, TraceSpan.Child), the embedding
// records its phase spans — host construction, every Lemma 2 separator
// call with depth and slack, per-round ADJUST/SPLIT, the final pass —
// into that trace.
func EmbedContext(ctx context.Context, t *Tree, opts ...EmbedOption) (*Result, error) {
	return core.EmbedXTreeContext(ctx, t, *NewEmbedConfig(opts...))
}

// EmbedInjectiveContext is EmbedInjective recording under the context's
// trace span.
func EmbedInjectiveContext(ctx context.Context, res *Result) (*InjectiveResult, error) {
	return core.EmbedInjectiveContext(ctx, res)
}

// EmbedHypercubeContext is EmbedHypercube recording under the context's
// trace span.
func EmbedHypercubeContext(ctx context.Context, res *Result) *HypercubeResult {
	return core.EmbedHypercubeContext(ctx, res)
}

// TraceExport writes the tracer's recorded spans to w.  Formats:
//
//	"jsonl"   one SpanData JSON object per line
//	"chrome"  Chrome trace-event JSON for chrome://tracing / Perfetto
func TraceExport(w io.Writer, tr *Tracer, format string) error {
	switch format {
	case "", "jsonl":
		return tr.WriteJSONL(w)
	case "chrome":
		return tr.WriteChromeTrace(w)
	default:
		return fmt.Errorf("xtreesim: unknown trace format %q (want jsonl or chrome)", format)
	}
}
