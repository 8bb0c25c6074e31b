package netsim

import (
	"math/rand"
	"testing"
)

func TestLinkQueueFIFO(t *testing.T) {
	a := arena{free: -1}
	var q fifo
	for i := 0; i < 100; i++ {
		a.push(&q, &message{Seq: int64(i)})
	}
	if q.n != 100 {
		t.Fatalf("length %d after 100 pushes", q.n)
	}
	for i := 0; i < 100; i++ {
		if m := a.pop(&q); m.Seq != int64(i) {
			t.Fatalf("pop %d returned seq %d", i, m.Seq)
		}
	}
	if q.n != 0 {
		t.Fatalf("length %d after draining", q.n)
	}
}

// TestLinkQueueInterleavedFIFO drives many queues that share one arena
// with random interleaved pushes, pops and drains, and holds every queue
// to a slice model: each pops and drains (a kill's flush) its own
// messages in FIFO order, with drain positions counting from its current
// head, and a drained queue takes pushes again.  The slab ends exactly as
// long as the peak number of live messages, which it can only do if a
// slot one queue frees is the next one any queue takes.
func TestLinkQueueInterleavedFIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := arena{free: -1}
	qs := make([]fifo, 17)
	model := make([][]int64, len(qs))
	seq, live, peak := int64(0), 0, 0
	for op := 0; op < 200000; op++ {
		i := rng.Intn(len(qs))
		q := &qs[i]
		switch r := rng.Intn(100); {
		case r < 55:
			a.push(q, &message{Seq: seq})
			model[i] = append(model[i], seq)
			seq++
			live++
		case r < 99:
			if q.n == 0 {
				continue
			}
			if m := a.pop(q); m.Seq != model[i][0] {
				t.Fatalf("op %d: queue %d popped seq %d, want %d", op, i, m.Seq, model[i][0])
			}
			model[i] = model[i][1:]
			live--
		default:
			want := model[i]
			a.drain(q, func(pos int, m *message) {
				if pos >= len(want) || m.Seq != want[pos] {
					t.Fatalf("op %d: queue %d drained seq %d at position %d, want %v", op, i, m.Seq, pos, want)
				}
			})
			model[i] = nil
			live -= len(want)
		}
		if int(q.n) != len(model[i]) {
			t.Fatalf("op %d: queue %d holds %d messages, want %d", op, i, q.n, len(model[i]))
		}
		peak = max(peak, live)
	}
	if len(a.slots) != peak {
		t.Errorf("slab holds %d slots after a peak of %d live messages", len(a.slots), peak)
	}
}

// TestLinkQueueMemoryBounded: a busy link's memory must follow its peak
// backlog, not the traffic it carries.  Reslicing popped messages off the
// front once kept every one of them reachable; the arena reuses their
// slots.
func TestLinkQueueMemoryBounded(t *testing.T) {
	a := arena{free: -1}
	var q fifo
	for i := 0; i < 200000; i++ {
		a.push(&q, &message{Seq: int64(i)})
		if q.n > 8 {
			a.pop(&q)
		}
	}
	if len(a.slots) != 9 || cap(a.slots) > 16 {
		t.Errorf("slab grew to %d slots (cap %d) after 200k messages with backlog ≤ 9", len(a.slots), cap(a.slots))
	}
}

func BenchmarkLinkQueueSteadyState(b *testing.B) {
	// Guard for the busy-link pattern: one push and one pop per cycle
	// must not allocate once the queue is warm.
	a := arena{free: -1}
	var q fifo
	for i := 0; i < 32; i++ {
		a.push(&q, &message{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.push(&q, &message{})
		a.pop(&q)
	}
}
