package server

// debugtrace.go serves the tracer's span ring.  The endpoint is cheap —
// a snapshot copy of the ring — so it is safe to poll, and it renders
// both machine formats the trace package exports: JSONL (one span per
// line, for jq and the span-schema checks in trace_test.go) and the
// Chrome trace-event JSON that chrome://tracing and Perfetto load
// directly.

import (
	"fmt"
	"net/http"
)

// handleDebugTrace renders GET /debug/trace.  Query parameters:
//
//	format=jsonl   one SpanData JSON object per line (default)
//	format=chrome  Chrome trace-event JSON for chrome://tracing
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "/debug/trace accepts GET only")
		return
	}
	format := r.URL.Query().Get("format")
	switch format {
	case "", "jsonl":
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("X-Trace-Dropped", fmt.Sprintf("%d", s.tracer.Dropped()))
		w.WriteHeader(http.StatusOK)
		if r.Method == http.MethodHead {
			return
		}
		if err := s.tracer.WriteJSONL(w); err != nil {
			s.logger.Printf("debug/trace: write jsonl: %v", err)
		}
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		if r.Method == http.MethodHead {
			return
		}
		if err := s.tracer.WriteChromeTrace(w); err != nil {
			s.logger.Printf("debug/trace: write chrome trace: %v", err)
		}
	default:
		writeError(w, http.StatusBadRequest, CodeInvalidRequest,
			"format must be jsonl or chrome")
	}
}
