// Package telemetry is the live-observation layer between the simulators
// and their watchers: a bounded-ring event hub that fans per-cycle samples
// and observer events out to any number of subscribers without ever
// letting a slow consumer stall the simulation.
//
// The design splits the two speeds apart.  The publishing side (the
// simulating goroutine, via Recorder's netsim.Observer hooks) encodes each
// event once, as its NDJSON line, into a ring of the last N lines under
// one short mutex hold and never blocks: if a subscriber has not kept up,
// the ring simply overwrites the oldest events and the subscriber learns
// — at its next read — exactly how many events it lost.  The consuming
// side (NDJSON streamers, xtreectl watch) copies batches of lines at
// whatever pace the network allows.  Backpressure therefore turns into
// counted, visible drops instead of simulator stalls, which is the
// contract the byte-identical-Result tests pin.
//
// The wire schema is the PR-3 TraceRecorder JSONL format extended with
// stream fields: Event embeds netsim.TraceEvent (same schema_version,
// same six simulator event types) and adds the session/shard/stream
// fields plus the stream-lifecycle types (start, shard, heartbeat,
// dropped, result, error).  DecodeEvent reads the lines of both formats
// and rejects schema versions this build does not know.
package telemetry

import (
	"encoding/json"
	"fmt"
	"strconv"

	"xtreesim/internal/jsonw"
	"xtreesim/internal/netsim"
)

// SchemaVersion is the stream schema version, shared with the
// TraceRecorder JSONL export (netsim.TraceSchemaVersion): the stream is
// a superset of the trace format, so the versions move together.
const SchemaVersion = netsim.TraceSchemaVersion

// Stream-lifecycle event types, extending the simulator enum
// (netsim.EventCycle .. netsim.EventKill) for the live wire format.
const (
	// EventStart opens a session stream: session ID, workload shape and
	// the embedding summary ride in Payload.
	EventStart = "start"
	// EventShard is one shard's share of one executed cycle on a
	// partitioned run: hops, boundary messages out, barrier wait.
	EventShard = "shard"
	// EventHeartbeat keeps an idle stream connection visibly alive.
	EventHeartbeat = "heartbeat"
	// EventDropped tells a subscriber that it fell behind the ring and
	// Dropped events were overwritten before it read them.
	EventDropped = "dropped"
	// EventResult closes a successful session: the final counters ride
	// in Payload.  It is always the last event of a session.
	EventResult = "result"
	// EventError closes a failed session; Reason carries the message.
	EventError = "error"
)

// Re-exported simulator event types that stream consumers name from
// this package.
const (
	EventCycle      = netsim.EventCycle
	EventHop        = netsim.EventHop
	EventDrop       = netsim.EventDrop
	EventRetransmit = netsim.EventRetransmit
	EventKill       = netsim.EventKill
)

// Event is one element of a session stream: the TraceRecorder JSONL
// record extended with the stream fields.  StreamSeq is the hub-assigned
// sequence number — dense within a session, the resume cursor for
// Last-Event-ID — and is stamped by Hub.Publish.
type Event struct {
	netsim.TraceEvent

	// StreamSeq orders the stream; the json tag is "stream_seq" so it
	// cannot collide with the simulator's per-message "seq" field.
	StreamSeq uint64 `json:"stream_seq"`
	// Session identifies the run; stamped by the publishing Recorder.
	Session string `json:"session,omitempty"`

	// Per-cycle counters beyond the TraceEvent snapshot (EventCycle).
	Delivered   int   `json:"delivered,omitempty"`
	Unreachable int   `json:"unreachable,omitempty"`
	Emitted     int64 `json:"emitted,omitempty"`
	// Hops is the link traversals of the previous cycle (EventCycle) or
	// of this shard this cycle (EventShard).
	Hops int `json:"hops,omitempty"`

	// Partitioned-run shard fields (EventShard).
	Shard            int   `json:"shard,omitempty"`
	BoundaryOut      int   `json:"boundary_out,omitempty"`
	BarrierWaitNanos int64 `json:"barrier_wait_ns,omitempty"`

	// Dropped counts events lost to ring overwrite (EventDropped).
	Dropped uint64 `json:"dropped,omitempty"`

	// Payload carries the structured envelope of start/result events.
	Payload json.RawMessage `json:"payload,omitempty"`
}

// AppendJSON appends e as one NDJSON line: the bytes json.Encoder writes
// for it with SetEscapeHTML(false), without reflection.  Hub.Publish
// encodes every stream event through it, and the stream writer its
// heartbeat and dropped markers.  An invalid Payload is an error, as it
// is for json.Encoder, and dst comes back unchanged.
func (e *Event) AppendJSON(dst []byte) ([]byte, error) {
	b := e.TraceEvent.AppendJSONFields(append(dst, '{'))
	b = strconv.AppendUint(append(b, `,"stream_seq":`...), e.StreamSeq, 10)
	b = jsonw.OmitString(b, `,"session":`, e.Session)
	b = jsonw.OmitInt(b, `,"delivered":`, int64(e.Delivered))
	b = jsonw.OmitInt(b, `,"unreachable":`, int64(e.Unreachable))
	b = jsonw.OmitInt(b, `,"emitted":`, e.Emitted)
	b = jsonw.OmitInt(b, `,"hops":`, int64(e.Hops))
	b = jsonw.OmitInt(b, `,"shard":`, int64(e.Shard))
	b = jsonw.OmitInt(b, `,"boundary_out":`, int64(e.BoundaryOut))
	b = jsonw.OmitInt(b, `,"barrier_wait_ns":`, e.BarrierWaitNanos)
	if e.Dropped != 0 {
		b = strconv.AppendUint(append(b, `,"dropped":`...), e.Dropped, 10)
	}
	if len(e.Payload) > 0 {
		var err error
		if b, err = jsonw.Compact(append(b, `,"payload":`...), e.Payload); err != nil {
			return dst, fmt.Errorf("telemetry: encode event payload: %w", err)
		}
	}
	return append(b, '}', '\n'), nil
}

// DecodeEvent parses one NDJSON line of a session stream or one JSONL line
// of a TraceRecorder export; a trace line leaves the stream fields zero.
// It rejects lines stamped with a schema version this build does not
// know: a field could have been renamed or re-interpreted between
// versions, and a silently misread event is worse than a refused one.
func DecodeEvent(line []byte) (Event, error) {
	var e Event
	if err := json.Unmarshal(line, &e); err != nil {
		return Event{}, fmt.Errorf("telemetry: decode event: %w", err)
	}
	if e.SchemaVersion != SchemaVersion {
		return Event{}, fmt.Errorf("telemetry: unsupported stream schema_version %d (this build reads %d)",
			e.SchemaVersion, SchemaVersion)
	}
	return e, nil
}
