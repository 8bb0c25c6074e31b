package netsim

import "testing"

func TestLinkQueueFIFO(t *testing.T) {
	var q linkQueue
	for i := 0; i < 100; i++ {
		q.push(message{Seq: int64(i)})
	}
	if q.length() != 100 {
		t.Fatalf("length %d after 100 pushes", q.length())
	}
	for i := 0; i < 100; i++ {
		if m := q.pop(); m.Seq != int64(i) {
			t.Fatalf("pop %d returned seq %d", i, m.Seq)
		}
	}
	if q.length() != 0 {
		t.Fatalf("length %d after draining", q.length())
	}
}

func TestLinkQueueInterleavedFIFO(t *testing.T) {
	// Pops interleaved with pushes must survive the copy-down compaction.
	var q linkQueue
	next, want := int64(0), int64(0)
	for round := 0; round < 5000; round++ {
		q.push(message{Seq: next})
		next++
		if q.length() > 7 {
			if m := q.pop(); m.Seq != want {
				t.Fatalf("round %d: popped seq %d, want %d", round, m.Seq, want)
			}
			want++
		}
	}
	for q.length() > 0 {
		if m := q.pop(); m.Seq != want {
			t.Fatalf("drain: popped seq %d, want %d", m.Seq, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained %d messages, pushed %d", want, next)
	}
}

func TestLinkQueueMemoryBounded(t *testing.T) {
	// The old `queue = queue[1:]` reslicing kept every popped message
	// reachable in the backing array forever: a busy link's memory grew
	// with total traffic, not peak backlog.  The ring must keep the
	// backing array proportional to the live count.
	var q linkQueue
	for i := 0; i < 200000; i++ {
		q.push(message{Seq: int64(i)})
		if q.length() > 8 {
			q.pop()
		}
	}
	if c := cap(q.buf); c > 64 {
		t.Errorf("backing array grew to cap %d after 200k messages with backlog ≤ 9", c)
	}
}

func BenchmarkLinkQueueSteadyState(b *testing.B) {
	// Guard for the busy-link pattern: one push and one pop per cycle
	// must not allocate once the queue is warm.
	var q linkQueue
	for i := 0; i < 32; i++ {
		q.push(message{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.push(message{})
		q.pop()
	}
}
