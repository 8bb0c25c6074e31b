package netsim

import "xtreesim/internal/bintree"

// KindExchange marks halo-exchange tokens.
const KindExchange int32 = 3

// Exchange is a BSP-style halo exchange: for a fixed number of rounds,
// every guest node sends one token to each tree neighbor and advances to
// the next round once all neighbor tokens for the current round arrived.
// Every tree edge is busy in both directions every round, so the host
// makespan per round measures the worst stretched edge including queuing —
// a direct, workload-level view of the dilation.
type Exchange struct {
	T      *bintree.Tree
	Rounds int

	round    []int32 // current round per node, 0-based
	pending  []int8  // tokens still awaited this round
	early    []int8  // tokens already received for the next round
	finished int
	done     bool
}

// NewExchange builds the workload.
func NewExchange(t *bintree.Tree, rounds int) *Exchange {
	if rounds < 1 {
		rounds = 1
	}
	return &Exchange{
		T:       t,
		Rounds:  rounds,
		round:   make([]int32, t.N()),
		pending: make([]int8, t.N()),
		early:   make([]int8, t.N()),
	}
}

// Init implements Workload.
func (e *Exchange) Init(emit func(Event)) {
	if e.T.N() == 1 {
		e.done = true
		return
	}
	var arr [3]int32
	for v := int32(0); v < int32(e.T.N()); v++ {
		buf := e.T.Neighbors(v, arr[:0])
		e.pending[v] = int8(len(buf))
		for _, u := range buf {
			emit(Event{From: v, To: u, Kind: KindExchange, Payload: 0})
		}
	}
}

// OnMessage implements Workload.
func (e *Exchange) OnMessage(ev Event, emit func(Event)) {
	v := ev.To
	switch int32(ev.Payload) {
	case e.round[v]:
		e.pending[v]--
	case e.round[v] + 1:
		e.early[v]++
	default:
		// Neighbors can be at most one round apart; anything else is
		// a protocol bug worth failing loudly on.
		panic("netsim: exchange token from a round out of range")
	}
	e.advance(v, emit)
}

// advance moves v on while every token of its current round is here: it
// sends the next round's tokens, and a node can already hold all of them
// (counted in early) when it completes a round.
func (e *Exchange) advance(v int32, emit func(Event)) {
	for e.pending[v] <= 0 {
		e.round[v]++
		if int(e.round[v]) >= e.Rounds {
			e.finished++
			if e.finished == e.T.N() {
				e.done = true
			}
			return
		}
		var arr [3]int32
		buf := e.T.Neighbors(v, arr[:0])
		e.pending[v] = int8(len(buf)) - e.early[v]
		e.early[v] = 0
		for _, u := range buf {
			emit(Event{From: v, To: u, Kind: KindExchange, Payload: int64(e.round[v])})
		}
	}
}

// Done implements Workload.
func (e *Exchange) Done() bool { return e.done }
