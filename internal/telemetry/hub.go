package telemetry

// hub.go is the fan-out core: one bounded ring of encoded events, N
// independent read cursors.  Publish encodes an event once, as the NDJSON
// line every subscriber will read, and stores the line in the hub's byte
// pages; it never blocks and never waits on a subscriber.  A subscriber
// that falls more than one ring behind loses the overwritten events and
// gets an exact count of how many.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"slices"
	"sync"
	"time"
)

// DefaultRingSize bounds a hub's memory when the caller does not choose:
// 4096 events is several cycles of headroom for every workload in the
// repo.  A streamed simulate event is a line of about 160 bytes, so a
// full ring holds about 650 KiB of lines plus an 8-byte end offset per
// event.
const DefaultRingSize = 4096

// pageSize is the size of the pointer-free byte pages a hub keeps its
// lines in.  A page holds about a hundred lines, so a session's last,
// partly filled page wastes little, and a line longer than a page spans
// several.
const pageSize = 16 << 10

// ErrIdle is what Subscriber.AppendNext returns when its idle channel
// delivers before a batch is ready.
var ErrIdle = errors.New("telemetry: subscriber idle")

// Hub is a bounded broadcast ring of encoded Events.  One goroutine
// publishes (the simulating goroutine, via Recorder); any number of
// Subscribers read at their own pace.  All methods are safe for
// concurrent use.
//
// The ring's lines sit back to back in one byte stream addressed by
// absolute offset: page p of the stream holds offsets [p·pageSize,
// (p+1)·pageSize) and is pages[p-first].  ends[seq%size] is the offset
// where line seq ends, and the oldest line in the ring starts at start.
// Pages are allocated as the lines need them; a page the ring has moved
// past goes on spare and takes the next lines.
type Hub struct {
	mu      sync.Mutex
	size    uint64 // ring capacity, in events
	next    uint64 // sequence number of the next event to publish
	ends    []uint64
	start   uint64 // where the oldest retained line starts
	tail    uint64 // where the next line starts
	page    uint64 // page size; pageSize except in tests
	pages   [][]byte
	first   uint64   // page number of pages[0]
	spare   [][]byte // pages the ring has moved past
	line    []byte   // Publish's encoding scratch
	closed  bool
	subs    []*Subscriber // attached readers
	dropped uint64        // events recognized as lost by subscribers
}

// NewHub returns a hub retaining the last ringSize events (≤ 0 means
// DefaultRingSize).
func NewHub(ringSize int) *Hub { return newHub(ringSize, pageSize) }

func newHub(ringSize, page int) *Hub {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	return &Hub{size: uint64(ringSize), page: uint64(page)}
}

// Publish stamps the event with the schema version and the next stream
// sequence number, encodes it as its NDJSON line (Event.AppendJSON), stores
// the line in the ring (overwriting the oldest event once the ring is
// full), wakes every subscriber, and returns the assigned sequence number.
// An event whose Payload does not encode is refused with the encoder's
// error and takes no sequence number.  Publish never blocks: a stalled
// subscriber costs one skipped channel send, nothing more.
func (h *Hub) Publish(e Event) (uint64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	e.SchemaVersion = SchemaVersion
	e.StreamSeq = h.next
	line, err := e.AppendJSON(h.line[:0])
	if err != nil {
		return 0, err
	}
	h.line = line
	return h.storeLocked(line), nil
}

// storeLocked appends line to the ring as event h.next, wakes every
// subscriber and returns the line's sequence number.  Once the ring is
// full the oldest line leaves it first, and the pages that only older
// lines used go to spare.  Callers hold h.mu.
func (h *Hub) storeLocked(line []byte) uint64 {
	seq := h.next
	i := seq % h.size
	if seq >= h.size {
		h.start = h.ends[i]
		for ; h.first < h.start/h.page; h.first++ {
			h.spare = append(h.spare, h.pages[0])
			h.pages = h.pages[:copy(h.pages, h.pages[1:])]
		}
	}
	for len(line) > 0 {
		off := h.tail % h.page
		if off == 0 { // the stream has reached a page it has not written yet
			h.pages = append(h.pages, h.newPage())
		}
		n := copy(h.pages[len(h.pages)-1][off:], line)
		line = line[n:]
		h.tail += uint64(n)
	}
	if seq < h.size {
		h.ends = append(h.ends, h.tail)
	} else {
		h.ends[i] = h.tail
	}
	h.next++
	for _, s := range h.subs {
		select {
		case s.notify <- struct{}{}:
		default: // already signaled; the reader will catch up
		}
	}
	return seq
}

// newPage returns a spare page, or a new one when there is none.
func (h *Hub) newPage() []byte {
	if n := len(h.spare); n > 0 {
		p := h.spare[n-1]
		h.spare = h.spare[:n-1]
		return p
	}
	return make([]byte, h.page)
}

// appendLinesLocked appends the retained lines [from, to) to dst.  Callers
// hold h.mu.
func (h *Hub) appendLinesLocked(dst []byte, from, to uint64) []byte {
	lo, hi := h.start, h.ends[(to-1)%h.size]
	if from > h.oldestLocked() {
		lo = h.ends[(from-1)%h.size]
	}
	for lo < hi {
		off := lo % h.page
		n := min(hi-lo, h.page-off)
		dst = append(dst, h.pages[lo/h.page-h.first][off:off+n]...)
		lo += n
	}
	return dst
}

// Close marks the stream complete.  Subscribers drain whatever the ring
// still holds and then see end-of-stream.  Close lets go of the spare
// pages and the encoding scratch, so a finished session holds only its
// ring's lines.  Publishing after Close is a programming error but
// harmless: the event lands in the ring and is visible to subscribers
// that have not drained yet.
func (h *Hub) Close() {
	h.mu.Lock()
	h.closed = true
	h.spare, h.line = nil, nil
	for _, s := range h.subs {
		select {
		case s.notify <- struct{}{}:
		default:
		}
	}
	h.mu.Unlock()
}

// Published reports how many events have been published so far (also the
// sequence number the next event will get).
func (h *Hub) Published() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.next
}

// Dropped reports the events recognized as lost across all subscribers,
// current and closed.  Losses are accounted when a subscriber next reads
// (or closes), so the counter trails a stalled-but-attached subscriber
// until it moves.
func (h *Hub) Dropped() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dropped
}

// oldestLocked returns the sequence of the oldest event still in the
// ring.  Callers hold h.mu.
func (h *Hub) oldestLocked() uint64 {
	if h.next <= h.size {
		return 0
	}
	return h.next - h.size
}

// Subscribe attaches a reader starting at sequence from.  Sequences
// already overwritten count as dropped on the first read; a sequence
// beyond the live tail is honored as-is — the subscriber waits until
// publishing catches up (or sees end-of-stream at close), which makes
// a far-future cursor a pure-heartbeat stream for its consumer.  Use
// Published() as from to follow only new events, 0 to replay the whole
// retained ring.
func (h *Hub) Subscribe(from uint64) *Subscriber {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := &Subscriber{
		hub:    h,
		cursor: from,
		notify: make(chan struct{}, 1),
	}
	h.subs = append(h.subs, s)
	return s
}

// Subscribers reports the readers currently attached.
func (h *Hub) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// Subscriber is one read cursor over a hub's ring.  Not safe for
// concurrent use by multiple goroutines (one reader per subscriber).
type Subscriber struct {
	hub    *Hub
	cursor uint64
	notify chan struct{}
	closed bool
}

// skipLostLocked moves a cursor the ring has overtaken to the oldest
// retained event and accounts the events it lost.  Callers hold the
// hub's mu.
func (s *Subscriber) skipLostLocked() uint64 {
	h := s.hub
	oldest := h.oldestLocked()
	if s.cursor >= oldest {
		return 0
	}
	d := oldest - s.cursor
	h.dropped += d
	s.cursor = oldest
	return d
}

// AppendNext appends the next batch of lines (at most maxBatch; ≤ 0 means
// the whole backlog) to dst, each the NDJSON line Publish encoded, and
// returns dst with how many events were overwritten before this read
// could see them.  A batch carries at least one line or a loss.  When
// nothing is pending, AppendNext blocks until an event arrives, the hub
// closes, ctx fires (ctx's error) or idle delivers (ErrIdle); a nil idle
// never does.  At the end of a complete, drained stream it returns
// io.EOF.  On an error dst comes back unchanged.
func (s *Subscriber) AppendNext(ctx context.Context, idle <-chan time.Time, dst []byte, maxBatch int) ([]byte, uint64, error) {
	h := s.hub
	for {
		h.mu.Lock()
		dropped := s.skipLostLocked()
		var n uint64
		if h.next > s.cursor { // a future cursor has nothing to read yet
			n = h.next - s.cursor
		}
		if maxBatch > 0 && n > uint64(maxBatch) {
			n = uint64(maxBatch)
		}
		if n > 0 {
			dst = h.appendLinesLocked(dst, s.cursor, s.cursor+n)
			s.cursor += n
		}
		closed := h.closed
		h.mu.Unlock()

		if n > 0 || dropped > 0 {
			return dst, dropped, nil
		}
		if closed {
			return dst, 0, io.EOF
		}
		select {
		case <-ctx.Done():
			return dst, 0, ctx.Err()
		case <-idle:
			return dst, 0, ErrIdle
		case <-s.notify:
		}
	}
}

// Next returns the next batch of events (at most maxBatch; ≤ 0 means
// the whole backlog), plus how many events were overwritten before this
// read could see them.  A (nil, 0, false, nil) return means the stream
// is complete and fully drained.  When nothing is pending, Next blocks
// until an event arrives, the hub closes, or ctx fires.  Next decodes
// the lines AppendNext reads, so it allocates the batch it returns.
func (s *Subscriber) Next(ctx context.Context, maxBatch int) (events []Event, dropped uint64, ok bool, err error) {
	lines, dropped, err := s.AppendNext(ctx, nil, nil, maxBatch)
	if err == io.EOF {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, err
	}
	events = make([]Event, 0, bytes.Count(lines, []byte{'\n'}))
	for len(lines) > 0 {
		i := bytes.IndexByte(lines, '\n')
		e, err := DecodeEvent(lines[:i])
		if err != nil {
			return nil, 0, false, err
		}
		events = append(events, e)
		lines = lines[i+1:]
	}
	return events, dropped, true, nil
}

// Close detaches the subscriber.  Events it never read but that were
// already overwritten are accounted as dropped, so a stalled client that
// disconnects still shows up in the hub's drop counter.
func (s *Subscriber) Close() {
	if s.closed {
		return
	}
	s.closed = true
	h := s.hub
	h.mu.Lock()
	s.skipLostLocked()
	i := slices.Index(h.subs, s)
	h.subs = slices.Delete(h.subs, i, i+1)
	h.mu.Unlock()
}
