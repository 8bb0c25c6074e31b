package trace

// export.go renders the completed-span ring for consumption outside the
// process: JSONL (one SpanData object per line — the /debug/trace and
// trace-smoke format) and the Chrome trace-event format, loadable in
// chrome://tracing or https://ui.perfetto.dev with one track per trace.
// WriteChrome is the module's one Chrome writer: netsim.TraceRecorder
// renders its simulator events through it too.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// MarshalJSON renders the attribute list as one JSON object in insertion
// order: {"depth":3,"slack":1}.
func (a Attrs) MarshalJSON() ([]byte, error) {
	buf := []byte{'{'}
	for i, at := range a {
		if i > 0 {
			buf = append(buf, ',')
		}
		k, err := json.Marshal(at.Key)
		if err != nil {
			return nil, err
		}
		buf = append(buf, k...)
		buf = append(buf, ':')
		buf = fmt.Appendf(buf, "%d", at.Val)
	}
	return append(buf, '}'), nil
}

// UnmarshalJSON parses the object form back into a key-sorted list (JSON
// objects are unordered, so sorting makes round trips deterministic).
func (a *Attrs) UnmarshalJSON(b []byte) error {
	var m map[string]int64
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make(Attrs, 0, len(keys))
	for _, k := range keys {
		out = append(out, Attr{Key: k, Val: m[k]})
	}
	*a = out
	return nil
}

// WriteJSONL writes the ring's spans, oldest first, one JSON object per
// line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, sd := range t.Spans() {
		if err := enc.Encode(&sd); err != nil {
			return err
		}
	}
	return nil
}

// ChromeEvent is one entry of the Chrome trace-event format: Ph is the
// phase ("X" complete slice with Dur, "i" instant with scope S, "C"
// counter), Ts and Dur are microseconds, and Pid/Tid pick the track.
type ChromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome writes events as one Chrome trace file:
// {"traceEvents":[...],"displayTimeUnit":"ms"}.
func WriteChrome(w io.Writer, events []ChromeEvent) error {
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []ChromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
}

// WriteChromeTrace writes the ring's spans as Chrome trace events: one
// track (tid) per trace ID, timestamps in microseconds relative to the
// earliest span.  Nested spans render as nested slices automatically
// because the viewer nests "X" events by time containment.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	var events []ChromeEvent

	var t0 int64
	for i, sd := range spans {
		if i == 0 || sd.Start < t0 {
			t0 = sd.Start
		}
	}
	tids := map[string]int{}
	for _, sd := range spans {
		tid, ok := tids[sd.Trace]
		if !ok {
			tid = len(tids)
			tids[sd.Trace] = tid
		}
		args := map[string]any{"trace": sd.Trace, "span": sd.Span}
		if sd.Parent != "" {
			args["parent"] = sd.Parent
		}
		for _, at := range sd.Attrs {
			args[at.Key] = at.Val
		}
		dur := sd.Dur / 1000
		if dur < 1 {
			dur = 1
		}
		events = append(events, ChromeEvent{
			Name: sd.Name, Ph: "X",
			Ts: (sd.Start - t0) / 1000, Dur: dur,
			Pid: 0, Tid: tid, Args: args,
		})
	}
	return WriteChrome(w, events)
}
