package netsim

import (
	"cmp"
	"slices"
)

// deliveryOrder puts one shard's arrivals of a cycle in the Phase-2
// delivery order: ascending (To, From, Kind, Payload, sent cycle), with
// true duplicates kept in arrival order, which is itself deterministic.
// The arrival order is global: link arrivals by the rank of the link they
// crossed, then memory-queue arrivals by vertex, each queue in FIFO order.
// Each arrival's key completes the order with that rank or vertex and its
// position within its shard (compareDelivery), and the coordinator merges
// the shards' sorted keys by that total order.
//
// A shard adds its keys in strictly ascending (rank or vertex, position),
// so any stable sort on the other fields yields the total order.  sort
// takes To without comparisons: a stable counting pass per 8-bit digit of
// To, least significant first, then an insertion sort of each run of
// equal To on the remaining fields.  A shard keeps one deliveryOrder for
// the run, so its buffers are reused from cycle to cycle, and the next
// run takes them over through scratchPool.
type deliveryOrder struct {
	shard int32
	keys  []deliveryKey
	spare []deliveryKey // the counting passes' scatter target
	msgs  []message     // in arrival order
}

// deliveryKey is one arrival's place in the delivery order.
type deliveryKey struct {
	to, from, kind int32
	shard          int32 // whose msgs hold the message
	arr            int32 // the arrival's link rank, or the link count plus its vertex
	pos            int32 // its index in the shard's msgs
	payload        int64
	sentAt         int
}

// reset empties the order for the next cycle's arrivals.
func (o *deliveryOrder) reset() { o.keys, o.msgs = o.keys[:0], o.msgs[:0] }

// add appends one arrival with its place arr in the global arrival order;
// a shard adds its arrivals in that order.
func (o *deliveryOrder) add(m *message, arr int) {
	o.keys = append(o.keys, deliveryKey{to: m.Ev.To, from: m.Ev.From, kind: m.Ev.Kind, shard: o.shard,
		arr: int32(arr), pos: int32(len(o.msgs)), payload: m.Ev.Payload, sentAt: m.SentAt})
	o.msgs = append(o.msgs, *m)
}

// Runs this short are insertion sorted: a whole cycle's keys instead of
// the counting passes, and a run of equal To on its remaining fields.
// A longer run of equal To, which a workload that sends one guest many
// messages at once can make, is comparison sorted.
const insertionRun = 16

// sort puts the keys in delivery order.  Guest ids are non-negative, so
// To's digits are its bytes; a pass that would put every key in one
// bucket is skipped, and the passes stop at To's highest non-zero byte.
func (o *deliveryOrder) sort() {
	keys := o.keys
	if len(keys) <= insertionRun {
		insertionSort(keys)
		return
	}
	spare := slices.Grow(o.spare[:0], len(keys))[:len(keys)]
	for shift := 0; shift < 32; shift += 8 {
		var count [256]int32
		var high int32
		for i := range keys {
			t := keys[i].to >> shift
			count[byte(t)]++
			high |= t
		}
		if int(count[byte(keys[0].to>>shift)]) < len(keys) {
			var sum int32
			for d, c := range count {
				count[d], sum = sum, sum+c
			}
			for i := range keys {
				d := byte(keys[i].to >> shift)
				spare[count[d]] = keys[i]
				count[d]++
			}
			keys, spare = spare, keys
		}
		if high>>8 == 0 {
			break
		}
	}
	o.keys, o.spare = keys, spare
	for lo := 0; lo < len(keys); {
		hi := lo + 1
		for hi < len(keys) && keys[hi].to == keys[lo].to {
			hi++
		}
		if run := keys[lo:hi]; len(run) <= insertionRun {
			insertionSort(run)
		} else {
			slices.SortFunc(run, func(x, y deliveryKey) int { return compareDelivery(&x, &y) })
		}
		lo = hi
	}
}

// insertionSort sorts a short run of keys by compareDelivery.
func insertionSort(keys []deliveryKey) {
	for i := 1; i < len(keys); i++ {
		k := keys[i]
		j := i
		for ; j > 0 && compareDelivery(&k, &keys[j-1]) < 0; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = k
	}
}

func compareDelivery(x, y *deliveryKey) int {
	switch {
	case x.to != y.to:
		return cmp.Compare(x.to, y.to)
	case x.from != y.from:
		return cmp.Compare(x.from, y.from)
	case x.kind != y.kind:
		return cmp.Compare(x.kind, y.kind)
	case x.payload != y.payload:
		return cmp.Compare(x.payload, y.payload)
	case x.sentAt != y.sentAt:
		return cmp.Compare(x.sentAt, y.sentAt)
	case x.arr != y.arr:
		return cmp.Compare(x.arr, y.arr)
	}
	return cmp.Compare(x.pos, y.pos)
}
