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

// randomArrivals draws n arrivals from a key space of spread^5 keys, so
// most share To, From, Kind, Payload and sentAt with others and differ
// only by arrival position, which Seq records; at spread 1 every key is
// equal and delivery order is arrival order.
func randomArrivals(rng *rand.Rand, n, spread int) []message {
	ms := make([]message, n)
	for i := range ms {
		ms[i] = message{
			Ev: Event{From: int32(rng.Intn(spread)), To: int32(rng.Intn(spread)),
				Kind: int32(rng.Intn(spread)), Payload: int64(rng.Intn(spread) - spread/2)},
			Seq: int64(i), SentAt: rng.Intn(spread),
		}
	}
	return ms
}

func TestDeliveryOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var order deliveryOrder
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(300)
		if trial < 4 {
			n = trial // empty, single, pair, triple
		}
		spread := 1 + rng.Intn(4)
		arrived := randomArrivals(rng, n, spread)

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
			t.Fatalf("trial %d (n=%d, spread=%d): delivery order diverges from the stable sort", trial, n, spread)
		}
	}
}
