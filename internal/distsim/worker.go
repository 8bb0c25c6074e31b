package distsim

// One worker goroutine per shard.  The coordinator drives the two-phase
// epoch barrier over command/report channels; within the fire phase the
// workers hand their boundary records directly to each other over a P×P
// matrix of buffered channels (the coordinator never sees boundary
// traffic).  Every worker sends all of its P-1 handoffs — empty ones
// included — before receiving any, and each directed pair has one buffer
// slot, so the exchange cannot deadlock regardless of scheduling.

import (
	"fmt"
	"sync"
	"time"

	"xtreesim/internal/netsim"
)

type beginCmd struct {
	cycle int
	inj   []netsim.Placement
	rel   []netsim.Placement
}

type fireCmd struct {
	cycle int
	dec   []netsim.HopDecision
	ci    netsim.CycleInfo
}

type workerCmd struct {
	begin *beginCmd
	fire  *fireCmd
}

type workerRep struct {
	begin  *netsim.BeginReport
	fire   *netsim.FireReport
	doneAt time.Time // when the fire phase finished on the worker
	err    error
}

// handoff is one cycle's boundary records from one shard to another.  The
// sender gives up msgs with the send: Shard.Fire builds a fresh outbox
// every cycle, so the receiver reads the slice without a copy.
type handoff struct {
	cycle int
	msgs  []netsim.Boundary
}

type worker struct {
	self  int
	parts int
	shard *netsim.Shard
	in    chan workerCmd
	out   chan workerRep
	// xch[i][j] carries handoffs from shard i to shard j.
	xch [][]chan handoff
}

func newWorker(self, parts int, shard *netsim.Shard, xch [][]chan handoff) *worker {
	return &worker{
		self: self, parts: parts, shard: shard, xch: xch,
		in:  make(chan workerCmd, 1),
		out: make(chan workerRep, 1),
	}
}

func (w *worker) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for cmd := range w.in {
		switch {
		case cmd.begin != nil:
			rep, err := w.shard.BeginCycle(cmd.begin.cycle, cmd.begin.inj, cmd.begin.rel)
			w.out <- workerRep{begin: &rep, err: err}
		case cmd.fire != nil:
			rep, err := w.fire(cmd.fire)
			// Stamped on the worker, not at the coordinator's sequential
			// reads: the spread of these stamps is the true straggler skew.
			w.out <- workerRep{fire: rep, doneAt: time.Now(), err: err}
		}
	}
}

func (w *worker) fire(cmd *fireCmd) (*netsim.FireReport, error) {
	outbox := w.shard.Fire(cmd.cycle, cmd.dec, cmd.ci)
	nOut := 0
	// Send every handoff before receiving any: with one buffer slot per
	// directed pair this is deadlock-free even if peers interleave
	// arbitrarily.  Empty handoffs are sent too — a receiver must hear
	// from every peer to know the cycle's exchange is complete.
	for j := 0; j < w.parts; j++ {
		if j == w.self {
			continue
		}
		nOut += len(outbox[j])
		w.xch[w.self][j] <- handoff{cycle: cmd.cycle, msgs: outbox[j]}
	}
	var incoming []netsim.Boundary
	var firstErr error
	for j := 0; j < w.parts; j++ {
		if j == w.self {
			continue
		}
		h := <-w.xch[j][w.self]
		if h.cycle != cmd.cycle {
			if firstErr == nil {
				firstErr = fmt.Errorf("distsim: handoff from shard %d is for cycle %d, want cycle %d",
					j, h.cycle, cmd.cycle)
			}
			continue
		}
		incoming = append(incoming, h.msgs...)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	rep, err := w.shard.Apply(cmd.cycle, incoming)
	rep.BoundaryOut = nOut
	return &rep, err
}
