package netsim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// deliveryLess is the comparator the runners sorted with before
// deliveryOrder, kept as the oracle: applied with sort.SliceStable it
// defines the Phase-2 order, and deliveryOrder must reproduce it exactly.
func deliveryLess(xe Event, xs int, ye Event, ys int) bool {
	if xe.To != ye.To {
		return xe.To < ye.To
	}
	if xe.From != ye.From {
		return xe.From < ye.From
	}
	if xe.Kind != ye.Kind {
		return xe.Kind < ye.Kind
	}
	if xe.Payload != ye.Payload {
		return xe.Payload < ye.Payload
	}
	return xs < ys
}

// randomArrivals draws n arrivals from a key space of spread^4 keys
// times toSpread destinations, so at a small spread most share From,
// Kind, Payload and sentAt with others and differ only by To and arrival
// position, which Seq records; at spread and toSpread 1 every key is
// equal and delivery order is arrival order.
func randomArrivals(rng *rand.Rand, n, spread, toSpread int) []message {
	ms := make([]message, n)
	for i := range ms {
		ms[i] = message{
			Ev: Event{From: int32(rng.Intn(spread)), To: int32(rng.Intn(toSpread)),
				Kind: int32(rng.Intn(spread)), Payload: int64(rng.Intn(spread) - spread/2)},
			Seq: int64(i), SentAt: rng.Intn(spread),
		}
	}
	return ms
}

// TestDeliveryOrderMatchesStableSort holds deliveryOrder to the stable
// sort it replaced.  Destinations come from at most 4 values, which fills
// the runs of equal To that the insertion sort orders (at 1 value, every
// key lands in one bucket of each counting pass), or from the server's
// whole guest range of 131,072 ids, which takes three counting passes.
// Cycle sizes straddle the insertion-sort cutoff, and one trial has 4,096
// arrivals.
func TestDeliveryOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var order deliveryOrder
	for trial := 0; trial < 1000; trial++ {
		n := rng.Intn(300)
		switch {
		case trial < 4:
			n = trial // empty, single, pair, triple
		case trial == 4:
			n = 4096
		case trial%5 == 0:
			n = rng.Intn(2 * insertionRun)
		}
		spread, toSpread := 1+rng.Intn(4), 1+rng.Intn(4)
		if trial%2 == 1 {
			toSpread = 131072
		}
		arrived := randomArrivals(rng, n, spread, toSpread)

		want := slices.Clone(arrived)
		sort.SliceStable(want, func(a, b int) bool {
			return deliveryLess(want[a].Ev, want[a].SentAt, want[b].Ev, want[b].SentAt)
		})

		order.reset()
		for i := range arrived {
			order.add(&arrived[i], i)
		}
		order.sort()
		got := make([]message, len(arrived))
		for i, k := range order.keys {
			got[i] = order.msgs[k.pos]
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d, spread=%d, to spread=%d): delivery order diverges from the stable sort",
				trial, n, spread, toSpread)
		}
	}
}
