package netsim

import "xtreesim/internal/bintree"

// Message kinds used by the built-in tree workloads.
const (
	KindTask   int32 = 1 // work flowing from the root toward the leaves
	KindResult int32 = 2 // partial results flowing back up
)

// DivideConquer models the canonical divide-and-conquer program the paper
// motivates binary-tree machines with: the root splits a task down the
// tree, every leaf computes, and partial results reduce back to the root.
// Waves > 1 pipelines that many successive task waves (the next wave
// starts as soon as the previous one's result reaches the root), which
// stresses link congestion on top of latency.
type DivideConquer struct {
	T     *bintree.Tree
	Waves int

	pending   []int8
	wavesLeft int
	done      bool
}

// NewDivideConquer builds the workload for the given guest tree.
func NewDivideConquer(t *bintree.Tree, waves int) *DivideConquer {
	if waves < 1 {
		waves = 1
	}
	return &DivideConquer{T: t, Waves: waves, pending: make([]int8, t.N()), wavesLeft: waves}
}

// Init implements Workload.
func (d *DivideConquer) Init(emit func(Event)) {
	d.startWave(emit)
}

func (d *DivideConquer) startWave(emit func(Event)) {
	root := d.T.Root()
	var arr [2]int32
	buf := d.T.Children(root, arr[:0])
	if len(buf) == 0 {
		// Single-node tree: the wave completes instantly.
		d.wavesLeft--
		if d.wavesLeft <= 0 {
			d.done = true
		} else {
			d.startWave(emit)
		}
		return
	}
	d.pending[root] = int8(len(buf))
	for _, c := range buf {
		emit(Event{From: root, To: c, Kind: KindTask})
	}
}

// OnMessage implements Workload.
func (d *DivideConquer) OnMessage(ev Event, emit func(Event)) {
	at := ev.To
	switch ev.Kind {
	case KindTask:
		var arr [2]int32
		buf := d.T.Children(at, arr[:0])
		if len(buf) == 0 {
			// Leaf: compute (one cycle, modeled as immediate) and
			// report up.
			emit(Event{From: at, To: d.T.Parent(at), Kind: KindResult})
			return
		}
		d.pending[at] = int8(len(buf))
		for _, c := range buf {
			emit(Event{From: at, To: c, Kind: KindTask})
		}
	case KindResult:
		d.pending[at]--
		if d.pending[at] > 0 {
			return
		}
		if p := d.T.Parent(at); p != bintree.None {
			emit(Event{From: at, To: p, Kind: KindResult})
			return
		}
		// Root: wave complete.
		d.wavesLeft--
		if d.wavesLeft <= 0 {
			d.done = true
			return
		}
		d.startWave(emit)
	}
}

// Done implements Workload.
func (d *DivideConquer) Done() bool { return d.done }

// Broadcast floods one message from the root to every node along tree
// edges and counts the receptions.
type Broadcast struct {
	T        *bintree.Tree
	received int
	done     bool
}

// NewBroadcast builds the workload.
func NewBroadcast(t *bintree.Tree) *Broadcast { return &Broadcast{T: t} }

// Init implements Workload.
func (b *Broadcast) Init(emit func(Event)) {
	b.received = 1 // the root knows
	if b.T.N() == 1 {
		b.done = true
		return
	}
	var arr [2]int32
	for _, c := range b.T.Children(b.T.Root(), arr[:0]) {
		emit(Event{From: b.T.Root(), To: c, Kind: KindTask})
	}
}

// OnMessage implements Workload.
func (b *Broadcast) OnMessage(ev Event, emit func(Event)) {
	b.received++
	if b.received == b.T.N() {
		b.done = true
	}
	var arr [2]int32
	for _, c := range b.T.Children(ev.To, arr[:0]) {
		emit(Event{From: ev.To, To: c, Kind: KindTask})
	}
}

// Done implements Workload.
func (b *Broadcast) Done() bool { return b.done }

// IdentityPlacement places guest process v on host vertex v — running the
// program on its own topology (the ideal binary-tree machine).
func IdentityPlacement(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	return p
}
