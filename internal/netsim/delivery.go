package netsim

import (
	"cmp"
	"slices"
)

// deliveryOrder puts one cycle's arrivals in the Phase-2 delivery order:
// ascending (To, From, Kind, Payload, sent cycle), with true duplicates
// kept in arrival order, which is itself deterministic.  Each arrival's
// position completes the key, so the unstable sort yields exactly that
// stable order.  The zero value is ready; a run keeps one so its buffers
// are reused from cycle to cycle.
type deliveryOrder struct {
	keys []deliveryKey
	buf  []message
}

// deliveryKey is one arrival's place in the delivery order.
type deliveryKey struct {
	to, from, kind int32
	pos            int32 // arrival position
	payload        int64
	sentAt         int
}

// sort reorders arrived in place into delivery order.
func (o *deliveryOrder) sort(arrived []message) {
	if len(arrived) < 2 {
		return
	}
	o.keys = o.keys[:0]
	for i, m := range arrived {
		o.keys = append(o.keys, deliveryKey{to: m.Ev.To, from: m.Ev.From, kind: m.Ev.Kind,
			pos: int32(i), payload: m.Ev.Payload, sentAt: m.SentAt})
	}
	slices.SortFunc(o.keys, compareDelivery)
	o.buf = append(o.buf[:0], arrived...)
	for i, k := range o.keys {
		arrived[i] = o.buf[k.pos]
	}
}

func compareDelivery(x, y deliveryKey) int {
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
	}
	return cmp.Compare(x.pos, y.pos)
}
