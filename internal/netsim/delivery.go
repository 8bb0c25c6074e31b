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
// position within its shard, so the unstable sort yields exactly that
// stable order, and the coordinator merges the shards' sorted keys by the
// same comparison.  A shard keeps one so its buffers are reused from cycle
// to cycle.
type deliveryOrder struct {
	shard int32
	keys  []deliveryKey
	msgs  []message // in arrival order
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
	o.keys = append(o.keys, o.key(m, arr, len(o.msgs)))
	o.msgs = append(o.msgs, *m)
}

// addQueue appends a memory queue's arrivals, which share the place arr,
// in FIFO order.
func (o *deliveryOrder) addQueue(q []message, arr int) {
	for i := range q {
		o.keys = append(o.keys, o.key(&q[i], arr, len(o.msgs)+i))
	}
	o.msgs = append(o.msgs, q...)
}

// key is the delivery key of m, held at pos in the shard's msgs.
func (o *deliveryOrder) key(m *message, arr, pos int) deliveryKey {
	return deliveryKey{to: m.Ev.To, from: m.Ev.From, kind: m.Ev.Kind, shard: o.shard,
		arr: int32(arr), pos: int32(pos), payload: m.Ev.Payload, sentAt: m.SentAt}
}

// sort puts the keys in delivery order.
func (o *deliveryOrder) sort() {
	slices.SortFunc(o.keys, func(x, y deliveryKey) int { return compareDelivery(&x, &y) })
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
