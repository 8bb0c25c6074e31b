package server

// middleware.go holds the request plumbing shared by every route: panic
// recovery, structured access logging, and the metrics instrumentation
// that feeds /metrics.  The API routes additionally get the admission
// gate, the per-request deadline and the body-size limit (wired in
// server.go), so /healthz and /metrics stay responsive under overload —
// an overloaded server that cannot report being overloaded is strictly
// worse than one that can.

import (
	"encoding/json"
	"errors"
	"log"
	"net/http"
	"runtime/debug"
	"time"

	"xtreesim/internal/trace"
)

// TraceHeader carries the trace ID: set on every traced response, and
// honored on requests — a client that sends a valid 16-hex-digit ID
// forces sampling and joins its span tree to that ID, so one trace can
// span caller and server.
const TraceHeader = "X-Trace-Id"

// statusWriter captures the status code and the bytes written so the
// access log and the per-route counters see what the client saw.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the wrapped writer so NDJSON session streams can
// push each batch through the instrument middleware immediately.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// writeJSON writes v with the given status; encoding failures are a
// programming error and fall through to the recovery middleware.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		// The header is out; nothing more to do than note it.
		log.Printf("server: encode response: %v", err)
	}
}

// writeError writes the structured error envelope.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorBody{Error: ErrorDetail{Code: code, Message: msg}})
}

// writeAPIError maps an error to the envelope: apiError carries its own
// status and code, everything else is a 500.
func writeAPIError(w http.ResponseWriter, err error) {
	var ae *apiError
	if errors.As(err, &ae) {
		writeError(w, ae.status, ae.code, ae.msg)
		return
	}
	writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
}

// instrument wraps h with panic recovery, the access log, the per-route
// metrics, and — when tracing is on — the request's root span.  route is
// the normalized route label ("/v1/embed"), not the raw URL, so the
// metric cardinality stays fixed and span names match metric labels.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		var span *trace.Span
		if s.tracer != nil {
			var ctx = r.Context()
			if id, ok := trace.ParseID(r.Header.Get(TraceHeader)); ok {
				ctx, span = s.tracer.RootWithID(ctx, route, id)
			} else {
				ctx, span = s.tracer.Root(ctx, route)
			}
			if span != nil {
				// The header must go out before the handler writes the
				// status line, so set it now: the client learns the ID to
				// look up in /debug/trace even on error responses.
				sw.Header().Set(TraceHeader, span.TraceID())
				r = r.WithContext(ctx)
			}
		}
		defer func() {
			if rec := recover(); rec != nil {
				s.logger.Printf("panic route=%s err=%v\n%s", route, rec, debug.Stack())
				if sw.status == 0 {
					writeError(sw, http.StatusInternalServerError, CodeInternal, "internal server error")
				}
			}
			dur := time.Since(start)
			s.metrics.record(route, sw.status, dur)
			span.SetAttr("status", int64(sw.status)).SetAttr("bytes", sw.bytes).End()
			if s.accessLog {
				tid := "-"
				if span != nil {
					tid = span.TraceID()
				}
				s.logger.Printf("method=%s route=%s status=%d bytes=%d dur_ms=%.3f remote=%s trace=%s",
					r.Method, route, sw.status, sw.bytes, float64(dur.Microseconds())/1000, r.RemoteAddr, tid)
			}
		}()
		h(sw, r)
	})
}

// guarded wraps an API handler with the production gate: method check,
// body-size limit, admission control and the per-request deadline.  The
// handler runs with a context that fires at the deadline; the engine and
// the simulator both poll it.
func (s *Server) guarded(route string, h http.HandlerFunc) http.Handler {
	return s.instrument(route, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
				route+" accepts POST only")
			return
		}
		if err := s.admit.acquire(r.Context()); err != nil {
			switch err {
			case errShed:
				w.Header().Set("Retry-After", s.retryAfter())
				writeError(w, http.StatusTooManyRequests, CodeShed,
					"admission queue full; retry later")
			default: // client went away while queued
				writeError(w, statusClientGone, CodeClientGone, err.Error())
			}
			return
		}
		defer s.admit.release()

		ctx, cancel := s.requestContext(r)
		defer cancel()
		r = r.WithContext(ctx)
		r.Body = http.MaxBytesReader(w, r.Body, s.maxBodyBytes)
		h(w, r)
	})
}

// statusClientGone is used when the client's context ends while the
// request waits in the admission queue (the canonical 499 has no stdlib
// constant; 503 keeps it in the retryable class).
const statusClientGone = http.StatusServiceUnavailable
