package xtreesim

// tracing.go surfaces the span tracer (internal/trace): lightweight
// context-propagated tracing across the serving stack — server request
// roots, engine queue/cache/compute phases, the embedder's separator and
// host-build phases, and a simulate span carrying the run's counters.
// One trace covers embed + simulate end to end; per-event simulator
// detail comes from the observers (WithObserver, WithTrace).
//
// Library callers trace an embedding by running it under a root span:
//
//	tr := xtreesim.NewTracer(1)                          // sample everything
//	ctx, root := tr.Root(context.Background(), "job")
//	res, _ := xtreesim.EmbedContext(ctx, tree)           // phase spans under root
//	root.End()
//	xtreesim.TraceExport(os.Stdout, tr, "jsonl")

import (
	"context"
	"fmt"
	"io"

	"xtreesim/internal/core"
	"xtreesim/internal/trace"
)

type (
	// Tracer samples, records and exports spans.  Create with NewTracer;
	// a nil *Tracer is valid and records nothing.
	Tracer = trace.Tracer
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

// SpanFromContext returns the context's live span, or nil — handy for
// opening a simulate span under an embedding trace by hand.
func SpanFromContext(ctx context.Context) *TraceSpan { return trace.FromContext(ctx) }

// EmbedContext is Embed under the caller's context: when the context
// carries a sampled span (Tracer.Root, TraceSpan.Child), the embedding
// records its phase spans — host construction, every Lemma 2 separator
// call with depth and slack, per-round ADJUST/SPLIT, the final pass —
// into that trace.
func EmbedContext(ctx context.Context, t *Tree, opts ...EmbedOption) (*Result, error) {
	return core.EmbedXTreeContext(ctx, t, embedConfig(opts...))
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
