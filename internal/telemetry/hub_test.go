package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"xtreesim/internal/netsim"
)

func cycleEvent(cycle int) Event {
	return Event{TraceEvent: netsim.TraceEvent{Type: EventCycle, Cycle: cycle}}
}

func TestHubOrderAndSeq(t *testing.T) {
	h := NewHub(16)
	sub := h.Subscribe(0)
	defer sub.Close()
	for i := 1; i <= 5; i++ {
		if seq, err := h.Publish(cycleEvent(i)); err != nil || seq != uint64(i-1) {
			t.Fatalf("publish %d assigned seq %d (err %v)", i, seq, err)
		}
	}
	evs, dropped, ok, err := sub.Next(context.Background(), 0)
	if err != nil || !ok || dropped != 0 {
		t.Fatalf("Next: evs=%d dropped=%d ok=%v err=%v", len(evs), dropped, ok, err)
	}
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	for i, e := range evs {
		if e.StreamSeq != uint64(i) || e.Cycle != i+1 {
			t.Fatalf("event %d: seq=%d cycle=%d", i, e.StreamSeq, e.Cycle)
		}
		if e.SchemaVersion != SchemaVersion {
			t.Fatalf("event %d: schema version %d", i, e.SchemaVersion)
		}
	}
}

func TestHubSlowSubscriberDrops(t *testing.T) {
	h := NewHub(8)
	sub := h.Subscribe(0)
	defer sub.Close()
	for i := 0; i < 20; i++ { // 12 of these overwrite unread events
		h.Publish(cycleEvent(i))
	}
	evs, dropped, ok, _ := sub.Next(context.Background(), 0)
	if !ok {
		t.Fatal("stream ended early")
	}
	if dropped != 12 {
		t.Fatalf("dropped=%d, want 12", dropped)
	}
	if len(evs) != 8 {
		t.Fatalf("got %d events, want the 8 retained", len(evs))
	}
	if evs[0].StreamSeq != 12 || evs[7].StreamSeq != 19 {
		t.Fatalf("retained window [%d,%d], want [12,19]", evs[0].StreamSeq, evs[7].StreamSeq)
	}
	if h.Dropped() != 12 {
		t.Fatalf("hub drop counter %d, want 12", h.Dropped())
	}
}

// TestHubPublishNeverBlocks pins the backpressure contract: thousands of
// publishes against a subscriber that never reads must complete
// immediately.
func TestHubPublishNeverBlocks(t *testing.T) {
	h := NewHub(4)
	sub := h.Subscribe(0) // attached, never reads
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10000; i++ {
			h.Publish(cycleEvent(i))
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publisher blocked on a stalled subscriber")
	}
	// The stalled subscriber's losses are accounted when it detaches.
	sub.Close()
	if got := h.Dropped(); got != 10000-4 {
		t.Fatalf("hub dropped %d, want %d", got, 10000-4)
	}
}

func TestHubCloseDrainsThenEOF(t *testing.T) {
	h := NewHub(16)
	sub := h.Subscribe(0)
	defer sub.Close()
	h.Publish(cycleEvent(1))
	h.Close()
	evs, _, ok, err := sub.Next(context.Background(), 0)
	if err != nil || !ok || len(evs) != 1 {
		t.Fatalf("drain: evs=%d ok=%v err=%v", len(evs), ok, err)
	}
	if _, _, ok, err := sub.Next(context.Background(), 0); ok || err != nil {
		t.Fatalf("want clean EOF, got ok=%v err=%v", ok, err)
	}
}

func TestHubSubscribeResume(t *testing.T) {
	h := NewHub(16)
	for i := 0; i < 10; i++ {
		h.Publish(cycleEvent(i))
	}
	h.Close()
	sub := h.Subscribe(6) // Last-Event-ID style resume
	defer sub.Close()
	evs, dropped, ok, _ := sub.Next(context.Background(), 0)
	if !ok || dropped != 0 || len(evs) != 4 || evs[0].StreamSeq != 6 {
		t.Fatalf("resume: evs=%d dropped=%d first=%d", len(evs), dropped, evs[0].StreamSeq)
	}
	// Tail subscription sees nothing but the EOF.
	tail := h.Subscribe(h.Published())
	defer tail.Close()
	if _, _, ok, _ := tail.Next(context.Background(), 0); ok {
		t.Fatal("tail subscriber saw events on a closed, drained hub")
	}
}

func TestHubNextBlocksUntilPublish(t *testing.T) {
	h := NewHub(16)
	sub := h.Subscribe(0)
	defer sub.Close()
	got := make(chan int, 1)
	go func() {
		evs, _, _, _ := sub.Next(context.Background(), 0)
		got <- len(evs)
	}()
	time.Sleep(10 * time.Millisecond)
	h.Publish(cycleEvent(7))
	select {
	case n := <-got:
		if n != 1 {
			t.Fatalf("woke with %d events", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next never woke")
	}
	// Context cancellation unblocks too.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, _, err := sub.Next(ctx, 0)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("ctx cancel returned %v", err)
	}
}

// TestHubConcurrent exercises one publisher against several readers
// under the race detector.
func TestHubConcurrent(t *testing.T) {
	h := NewHub(64)
	const subs, events = 4, 2000
	var wg sync.WaitGroup
	totals := make([]uint64, subs)
	for s := 0; s < subs; s++ {
		sub := h.Subscribe(0)
		wg.Add(1)
		go func(s int, sub *Subscriber) {
			defer wg.Done()
			defer sub.Close()
			var seen, dropped uint64
			var last int64 = -1
			for {
				evs, d, ok, err := sub.Next(context.Background(), 0)
				if err != nil {
					t.Errorf("sub %d: %v", s, err)
					return
				}
				if !ok {
					break
				}
				dropped += d
				for _, e := range evs {
					if int64(e.StreamSeq) <= last {
						t.Errorf("sub %d: seq %d after %d", s, e.StreamSeq, last)
						return
					}
					last = int64(e.StreamSeq)
					seen++
				}
			}
			totals[s] = seen + dropped
		}(s, sub)
	}
	for i := 0; i < events; i++ {
		h.Publish(cycleEvent(i))
	}
	h.Close()
	wg.Wait()
	for s, n := range totals {
		if n != events {
			t.Errorf("sub %d: seen+dropped = %d, want %d", s, n, events)
		}
	}
}

func TestHubBatchLimit(t *testing.T) {
	h := NewHub(16)
	sub := h.Subscribe(0)
	defer sub.Close()
	for i := 0; i < 10; i++ {
		h.Publish(cycleEvent(i))
	}
	evs, _, ok, _ := sub.Next(context.Background(), 3)
	if !ok || len(evs) != 3 || evs[0].StreamSeq != 0 {
		t.Fatalf("first batch: %d events", len(evs))
	}
	evs, _, ok, _ = sub.Next(context.Background(), 0)
	if !ok || len(evs) != 7 || evs[0].StreamSeq != 3 {
		t.Fatalf("second batch: %d events starting %d", len(evs), evs[0].StreamSeq)
	}
}

// TestHubFutureCursor: a subscriber ahead of the stream reads nothing
// (and drops nothing) until publishing catches up with its cursor.
func TestHubFutureCursor(t *testing.T) {
	h := NewHub(8)
	for i := 0; i < 3; i++ {
		h.Publish(Event{TraceEvent: netsim.TraceEvent{Type: EventCycle, Cycle: i}})
	}
	sub := h.Subscribe(5)
	defer sub.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	events, dropped, ok, err := sub.Next(ctx, 0)
	cancel()
	if err == nil || len(events) != 0 || dropped != 0 || ok {
		t.Fatalf("future cursor read events=%v dropped=%d ok=%v err=%v before catch-up",
			events, dropped, ok, err)
	}

	// Publish past the cursor: only seqs >= 5 are delivered.
	for i := 3; i < 7; i++ {
		h.Publish(Event{TraceEvent: netsim.TraceEvent{Type: EventCycle, Cycle: i}})
	}
	events, dropped, ok, err = sub.Next(context.Background(), 0)
	if err != nil || !ok || dropped != 0 {
		t.Fatalf("catch-up read: dropped=%d ok=%v err=%v", dropped, ok, err)
	}
	if len(events) != 2 || events[0].StreamSeq != 5 || events[1].StreamSeq != 6 {
		t.Fatalf("catch-up events %+v, want seqs 5,6", events)
	}

	// A future cursor on a closed hub is a clean EOF, not a hang.
	tail := h.Subscribe(100)
	h.Close()
	if _, _, ok, err := tail.Next(context.Background(), 0); ok || err != nil {
		t.Fatalf("future cursor at close: ok=%v err=%v, want EOF", ok, err)
	}
	tail.Close()
	if h.Dropped() != 0 {
		t.Fatalf("future cursors charged %d drops", h.Dropped())
	}
}

// TestHubRefusesUnencodablePayload: an event whose payload is not JSON
// is refused with the encoder's error and takes no sequence number.
func TestHubRefusesUnencodablePayload(t *testing.T) {
	h := NewHub(4)
	h.Publish(cycleEvent(1))
	if _, err := h.Publish(Event{TraceEvent: netsim.TraceEvent{Type: EventResult}, Payload: json.RawMessage(`{"a":`)}); err == nil {
		t.Fatal("published an event whose payload does not encode")
	}
	if seq, err := h.Publish(cycleEvent(2)); err != nil || seq != 1 || h.Published() != 2 {
		t.Fatalf("after a refused event: seq %d, err %v, published %d; want seq 1 of 2", seq, err, h.Published())
	}
}

// hubModel is FuzzHub's reference for the page store: every line ever
// published in a plain slice, with the ring's bound and each reader's
// cursor and losses.
type hubModel struct {
	size    uint64
	lines   [][]byte
	closed  bool
	dropped uint64
}

type subModel struct {
	sub     *Subscriber
	cursor  uint64
	dropped uint64
	read    uint64 // the sum of the losses AppendNext returned
}

func (m *hubModel) oldest() uint64 {
	if n := uint64(len(m.lines)); n > m.size {
		return n - m.size
	}
	return 0
}

// skip moves an overtaken cursor to the oldest retained line and returns
// the lines it lost.
func (m *hubModel) skip(s *subModel) uint64 {
	o := m.oldest()
	if s.cursor >= o {
		return 0
	}
	d := o - s.cursor
	s.cursor, s.dropped, m.dropped = o, s.dropped+d, m.dropped+d
	return d
}

// publishLine stores a raw line as Publish stores an encoded event.
func publishLine(h *Hub, line []byte) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.storeLocked(line)
}

// FuzzHub holds the hub's page store to hubModel over random sequences of
// publish, subscribe, read and close: ring sizes 1–17, pages of 1–64
// bytes, lines from 1 byte to twice a page, batch limits 0–5, and every
// cursor from 0 to past the live tail.  Each read must return exactly the
// model's bytes and losses, and Published, Dropped and the sum of every
// reader's losses must match the model after every step.  While the hub is open
// its pages must cover exactly the retained lines, and it must have
// allocated no more pages than it ever held at once.
func FuzzHub(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for ring := 0; ring < 17; ring++ {
		ops := make([]byte, 2+400)
		rng.Read(ops)
		ops[0], ops[1] = byte(ring), byte(rng.Intn(64))
		f.Add(ops)
	}
	f.Add([]byte{0, 0, 0, 4, 5, 0, 5, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		m := &hubModel{size: uint64(data[0])%17 + 1}
		page := int(data[1])%64 + 1
		h := newHub(int(m.size), page)
		data = data[2:]
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		canceled, cancel := context.WithCancel(context.Background())
		cancel()
		fired := make(chan time.Time)
		close(fired)
		var subs []*subModel
		peak := 0
		for len(data) > 0 {
			switch op := next() % 8; {
			case op < 3: // a raw line of 1 to 2·page+1 bytes
				seq := uint64(len(m.lines))
				line := make([]byte, next()%(2*page+1)+1)
				for i := range line {
					line[i] = byte(int(seq)*7 + i)
				}
				if got := publishLine(h, line); got != seq {
					t.Fatalf("line %d took seq %d", seq, got)
				}
				m.lines = append(m.lines, line)
			case op == 3: // an event through Publish, or one it must refuse
				e := Event{TraceEvent: netsim.TraceEvent{Type: EventCycle, Cycle: next()}, Session: "s"}
				if b := next(); b%5 == 0 {
					e.Payload = json.RawMessage(`{"x":`)
					if _, err := h.Publish(e); err == nil {
						t.Fatal("Publish took an event whose payload does not encode")
					}
					break
				} else if b%5 == 1 {
					e.Payload = json.RawMessage(` { "x" : [1, 2] } `)
				}
				seq, err := h.Publish(e)
				if err != nil || seq != uint64(len(m.lines)) {
					t.Fatalf("Publish: seq %d err %v, want seq %d", seq, err, len(m.lines))
				}
				e.SchemaVersion, e.StreamSeq = SchemaVersion, seq
				line, err := e.AppendJSON(nil)
				if err != nil {
					t.Fatal(err)
				}
				m.lines = append(m.lines, line)
			case op == 4: // subscribe at 0, the tail, near it, or far past it
				n, b := uint64(len(m.lines)), next()
				var from uint64
				switch b % 4 {
				case 1:
					from = n
				case 2:
					from = uint64(b/4) % (n + 4)
				case 3:
					from = n + 1<<40
				}
				subs = append(subs, &subModel{sub: h.Subscribe(from), cursor: from})
			case op == 5 || op == 6: // read one batch without blocking
				if len(subs) == 0 {
					break
				}
				s := subs[next()%len(subs)]
				batch, prefix := next()%6, []byte("prior")[:next()%6]
				ctx, idle, wantErr := canceled, (<-chan time.Time)(nil), error(context.Canceled)
				if op == 6 {
					ctx, idle, wantErr = context.Background(), fired, ErrIdle
				}
				got, dropped, err := s.sub.AppendNext(ctx, idle, append([]byte(nil), prefix...), batch)
				s.read += dropped
				wantDropped := m.skip(s)
				want := append([]byte(nil), prefix...)
				for n := 0; s.cursor < uint64(len(m.lines)) && (batch == 0 || n < batch); n++ {
					want = append(want, m.lines[s.cursor]...)
					s.cursor++
				}
				switch {
				case len(want) > len(prefix) || wantDropped > 0:
					wantErr = nil
				case m.closed:
					wantErr = io.EOF
				}
				if err != wantErr || dropped != wantDropped || !bytes.Equal(got, want) {
					t.Fatalf("read (batch %d): %q, dropped %d, err %v; want %q, dropped %d, err %v",
						batch, got, dropped, err, want, wantDropped, wantErr)
				}
			case op == 7: // detach a reader, or complete the stream
				if b := next(); b%4 == 0 || len(subs) == 0 {
					h.Close()
					m.closed = true
				} else {
					k := b % len(subs)
					subs[k].sub.Close()
					m.skip(subs[k])
					subs = append(subs[:k], subs[k+1:]...)
				}
			}

			if got := h.Published(); got != uint64(len(m.lines)) {
				t.Fatalf("Published %d, want %d", got, len(m.lines))
			}
			if got := h.Dropped(); got != m.dropped {
				t.Fatalf("hub Dropped %d, want %d", got, m.dropped)
			}
			for _, s := range subs {
				if s.read != s.dropped {
					t.Fatalf("reader's losses sum to %d, want %d", s.read, s.dropped)
				}
			}
			h.mu.Lock()
			p := uint64(page)
			if h.first != h.start/p || h.first+uint64(len(h.pages)) != (h.tail+p-1)/p {
				t.Fatalf("pages %d..%d hold bytes %d..%d", h.first, h.first+uint64(len(h.pages)), h.start, h.tail)
			}
			peak = max(peak, len(h.pages))
			if !m.closed && len(h.pages)+len(h.spare) != peak {
				t.Fatalf("%d pages allocated, at most %d held at once", len(h.pages)+len(h.spare), peak)
			}
			h.mu.Unlock()
		}
	})
}

// TestHubCloseRemovesOneReader: closing a reader takes it, and only it,
// off the hub's reader list, so every reader still attached is woken by
// the next publish, and a second Close changes nothing.
func TestHubCloseRemovesOneReader(t *testing.T) {
	h := NewHub(16)
	subs := make([]*Subscriber, 4)
	for i := range subs {
		subs[i] = h.Subscribe(0)
	}
	subs[2].Close()
	subs[2].Close()
	subs[0].Close()
	if got := h.Subscribers(); got != 2 {
		t.Fatalf("%d readers attached, want 2", got)
	}
	if _, err := h.Publish(cycleEvent(1)); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Subscriber{subs[1], subs[3]} {
		select {
		case <-s.notify:
		default:
			t.Fatal("an attached reader was not woken by the publish")
		}
	}
	subs[3].Close()
	subs[1].Close()
	if got := h.Subscribers(); got != 0 {
		t.Fatalf("%d readers attached after closing all, want 0", got)
	}
}
