package netsim

import (
	"fmt"
	"math/rand"
	"sort"

	"xtreesim/internal/graph"
)

// Default retransmission knobs, used when the corresponding FaultPlan
// field is zero.
const (
	DefaultMaxRetries  = 8 // retransmissions per message before giving up
	DefaultBackoffBase = 2 // first backoff, in cycles; doubles per retry
)

// FaultPlan is a deterministic, seeded fault-injection schedule.  The same
// plan against the same Config and Workload reproduces the same Result,
// run after run: the drop/corruption stream comes from a seeded generator
// consumed in the simulator's fixed traversal order, and kills fire at
// fixed cycles.
//
// A plan with no kills and zero probabilities is inert: the simulator
// skips the fault layer entirely and the Result is byte-identical to a run
// with Config.Faults == nil.
//
// When the plan is active, the delivery layer turns on: every lost message
// (random drop, corruption detected by the delivery checksum, or a
// casualty of a link/vertex kill) is nacked back to its source, which
// retransmits after an exponential backoff (BackoffBase, 2·BackoffBase,
// 4·BackoffBase, … cycles) up to MaxRetries times before the message is
// abandoned and counted in Result.Unreachable.  Acks and nacks are modeled
// as control signals outside the data links, so they consume no link
// bandwidth — which is also what keeps the inert-plan run byte-identical.
type FaultPlan struct {
	// Seed drives the drop/corruption random stream.
	Seed int64
	// LinkKills and VertexKills are permanent, scheduled failures.  A
	// kill with Cycle ≤ 0 is dead from the start of the run.
	LinkKills   []LinkKill
	VertexKills []VertexKill
	// DropProb is the per-hop probability that a message in flight is
	// lost on a link.  CorruptProb is the per-hop probability that its
	// payload is mangled instead; corruption is detected by a checksum
	// at final delivery, where the message is discarded and nacked.
	DropProb    float64
	CorruptProb float64
	// MaxRetries bounds retransmissions per message (0 means
	// DefaultMaxRetries); BackoffBase is the first backoff in cycles
	// (0 means DefaultBackoffBase).
	MaxRetries  int
	BackoffBase int
}

// LinkKill schedules the death of the undirected link {U, V} at the start
// of the given cycle: both directions stop carrying traffic and every
// message queued on them is lost (and nacked for retransmission).
type LinkKill struct {
	U, V  int32
	Cycle int
}

// VertexKill schedules the death of a host vertex at the start of the
// given cycle: all incident links die with it, and every guest process
// placed on it stops sending and receiving for good.
type VertexKill struct {
	V     int32
	Cycle int
}

// Active reports whether the plan can inject any fault at all.
func (p *FaultPlan) Active() bool {
	if p == nil {
		return false
	}
	return len(p.LinkKills) > 0 || len(p.VertexKills) > 0 || p.DropProb > 0 || p.CorruptProb > 0
}

// validate checks the plan against a host graph.
func (p *FaultPlan) validate(host *graph.Graph) error {
	if p.DropProb < 0 || p.DropProb > 1 {
		return fmt.Errorf("netsim: DropProb %v outside [0,1]", p.DropProb)
	}
	if p.CorruptProb < 0 || p.CorruptProb > 1 {
		return fmt.Errorf("netsim: CorruptProb %v outside [0,1]", p.CorruptProb)
	}
	if p.MaxRetries < 0 {
		return fmt.Errorf("netsim: negative MaxRetries %d", p.MaxRetries)
	}
	if p.BackoffBase < 0 {
		return fmt.Errorf("netsim: negative BackoffBase %d", p.BackoffBase)
	}
	n := int32(host.N())
	for _, k := range p.LinkKills {
		if k.U < 0 || k.U >= n || k.V < 0 || k.V >= n {
			return fmt.Errorf("netsim: link kill {%d,%d} outside host [0,%d)", k.U, k.V, n)
		}
		if !hasNeighbor(host, k.U, k.V) {
			return fmt.Errorf("netsim: link kill {%d,%d} is not a host edge", k.U, k.V)
		}
	}
	for _, k := range p.VertexKills {
		if k.V < 0 || k.V >= n {
			return fmt.Errorf("netsim: vertex kill %d outside host [0,%d)", k.V, n)
		}
	}
	return nil
}

func hasNeighbor(host *graph.Graph, u, v int32) bool {
	for _, w := range host.Neighbors(int(u)) {
		if w == v {
			return true
		}
	}
	return false
}

// schedKill is a LinkKill or VertexKill normalized for replay.
type schedKill struct {
	cycle  int
	vertex bool
	u, v   int32 // vertex kill: u == v == the vertex
}

// faultState is the per-run fault machinery.
type faultState struct {
	host  *graph.Graph
	plan  FaultPlan // defaults filled in
	rng   *rand.Rand
	deadV []bool
	deadE map[int64]bool // directed edge keys; kills insert both directions

	kills   []schedKill // merged schedule, sorted by cycle
	killIdx int         // next kill to apply
	fired   []firedKill // advance's result, reused

	// nh caches per-destination next-hop tables over the alive graph,
	// built lazily by BFS and invalidated whenever a kill lands.
	nh    map[int32][]int32
	queue []int32 // nextHopRow's scratch
}

// newFaultState validates the plan and builds the run state, or returns
// (nil, nil) for an inert plan.
func newFaultState(p *FaultPlan, host *graph.Graph) (*faultState, error) {
	if err := p.validate(host); err != nil {
		return nil, err
	}
	if !p.Active() {
		return nil, nil
	}
	plan := *p
	if plan.MaxRetries == 0 {
		plan.MaxRetries = DefaultMaxRetries
	}
	if plan.BackoffBase == 0 {
		plan.BackoffBase = DefaultBackoffBase
	}
	f := &faultState{
		host:  host,
		plan:  plan,
		rng:   rand.New(rand.NewSource(plan.Seed)),
		deadV: make([]bool, host.N()),
		deadE: make(map[int64]bool),
		nh:    make(map[int32][]int32),
	}
	for _, k := range plan.LinkKills {
		f.kills = append(f.kills, schedKill{cycle: k.Cycle, u: k.U, v: k.V})
	}
	for _, k := range plan.VertexKills {
		f.kills = append(f.kills, schedKill{cycle: k.Cycle, vertex: true, u: k.V, v: k.V})
	}
	sort.SliceStable(f.kills, func(a, b int) bool { return f.kills[a].cycle < f.kills[b].cycle })
	return f, nil
}

// ekey packs a directed link into a deadE key.
func ekey(u, v int32) int64 { return int64(u)<<32 | int64(v) }

// blocked reports whether the directed hop u→v is unusable.
func (f *faultState) blocked(u, v int32) bool {
	return f.deadE[ekey(u, v)] || f.deadV[v] || f.deadV[u]
}

// next returns the next hop from `at` toward dst over the alive graph, or
// -1 when dst is unreachable.  Tables are built per destination on first
// use and reused until the next kill.
func (f *faultState) next(at, dst int32) int32 {
	tab, ok := f.nh[dst]
	if !ok {
		tab = make([]int32, f.host.N())
		f.queue = nextHopRow(f.host, dst, tab, f.queue, f.blocked)
		if f.deadV[dst] {
			// Every hop into a dead vertex is blocked, so the BFS
			// reached nothing but dst itself, which is no route either.
			tab[dst] = -1
		}
		f.nh[dst] = tab
	}
	return tab[at]
}

// firedKill is one scheduled kill that took effect; a duplicate schedule
// entry, or a link kill on a link already down, fires nothing.
type firedKill struct {
	idx    int // position in the schedule; orders the shards' casualty reports
	vertex bool
	u, v   int32 // vertex kill: u == v == the vertex
	// links are the directed links the kill took down, in the order their
	// queues flush: both directions of each incident link for a vertex
	// kill, u→v then v→u for a link kill.
	links [][2]int32
}

// info is the kill's observer record at cycle.
func (k firedKill) info(cycle int) KillInfo {
	return KillInfo{Cycle: cycle, Vertex: k.vertex, U: k.u, V: k.v}
}

// advance fires every kill scheduled at or before cycle and returns the
// ones that took effect, in schedule order.  The run's replica and every
// shard's walk the one schedule through it, so all agree on which links
// and vertices are dead; the alive-graph routes go stale with any kill.
// The returned slice is reused by the next call.
func (f *faultState) advance(cycle int) []firedKill {
	f.fired = f.fired[:0]
	for ; f.killIdx < len(f.kills) && f.kills[f.killIdx].cycle <= cycle; f.killIdx++ {
		k := f.kills[f.killIdx]
		fk := firedKill{idx: f.killIdx, vertex: k.vertex, u: k.u, v: k.v}
		if k.vertex {
			if f.deadV[k.u] {
				continue
			}
			f.deadV[k.u] = true
			for _, nb := range f.host.Neighbors(int(k.u)) {
				fk.links = append(fk.links, [2]int32{k.u, nb}, [2]int32{nb, k.u})
			}
		} else {
			if f.deadE[ekey(k.u, k.v)] {
				continue // already down: a duplicate entry, or its vertex died
			}
			fk.links = [][2]int32{{k.u, k.v}, {k.v, k.u}}
		}
		for _, l := range fk.links {
			f.deadE[ekey(l[0], l[1])] = true
		}
		f.fired = append(f.fired, fk)
	}
	if len(f.fired) > 0 {
		clear(f.nh)
	}
	return f.fired
}

// hopDecision is the fault generator's verdict on one hop.
type hopDecision struct{ drop, corrupt bool }

// draw decides one hop under the plan's probabilities, consuming the
// generator in the order every run relies on: a drop draw when DropProb >
// 0, then, for a survivor not yet corrupt, a corruption draw when
// CorruptProb > 0.
func (f *faultState) draw(corrupt bool) hopDecision {
	if f.plan.DropProb > 0 && f.rng.Float64() < f.plan.DropProb {
		return hopDecision{drop: true}
	}
	return hopDecision{corrupt: !corrupt && f.plan.CorruptProb > 0 && f.rng.Float64() < f.plan.CorruptProb}
}

// replica returns a fresh kill state on the same schedule for a shard.  It
// has no generator: only the coordinator draws.
func (f *faultState) replica() *faultState {
	return &faultState{host: f.host, plan: f.plan, kills: f.kills, deadV: make([]bool, f.host.N()),
		deadE: make(map[int64]bool), nh: make(map[int32][]int32)}
}
