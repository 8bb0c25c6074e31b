package main

// check.go verifies every answer the benchmark receives.  A wrong answer
// counts in the run's failures and fails the run.  The checks are:
//
//   - the bounds of Theorems 1-4 on every embed item: X-tree dilation <= 3
//     and load <= 16; hypercube dilation <= 4 and load <= 16; injective
//     dilation <= 11 and load 1; universal dilation 1 and load 1;
//   - every swapped variant of one embed-hot shape gets identical embed
//     metrics (see embedSig for the one exception);
//   - a repeated simulate body returns identical sim counters every time,
//     with or without stream=1 and partitions, and the traced run's
//     in-process result for that body agrees;
//   - every stream is gap-free apart from counted drops, starts with a
//     start event and ends in a result event.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"

	"xtreesim/internal/telemetry"
)

// theoremBound is the largest dilation and load a theorem allows.  Both
// are at least 1 for any guest with an edge, so a bound of 1 is exact.
type theoremBound struct{ dilation, load int }

var (
	boundXTree     = theoremBound{dilation: 3, load: 16} // Theorem 1
	boundInjective = theoremBound{dilation: 11, load: 1} // Theorem 2
	boundHypercube = theoremBound{dilation: 4, load: 16} // Theorem 3
	boundUniversal = theoremBound{dilation: 1, load: 1}  // Theorem 4
)

func boundFor(host string) theoremBound {
	switch host {
	case hostHypercube:
		return boundHypercube
	case hostUniversal:
		return boundUniversal
	}
	return boundXTree
}

// checkItem checks one embed item for a guest of n nodes on host.
func checkItem(it embedItem, host string, n int, b theoremBound) error {
	switch {
	case it.Error != "":
		return fmt.Errorf("item %d: error %q", it.Index, it.Error)
	case it.N != n:
		return fmt.Errorf("item %d: n=%d, sent %d nodes", it.Index, it.N, n)
	case it.Host != host:
		return fmt.Errorf("item %d: host %q, want %q", it.Index, it.Host, host)
	case it.Dilation < 1 || it.Dilation > b.dilation:
		return fmt.Errorf("item %d: %s dilation %d outside [1,%d]", it.Index, host, it.Dilation, b.dilation)
	case it.MaxLoad < 1 || it.MaxLoad > b.load:
		return fmt.Errorf("item %d: %s load %d outside [1,%d]", it.Index, host, it.MaxLoad, b.load)
	case it.HostVertices < 1 || it.Expansion <= 0:
		return fmt.Errorf("item %d: host_vertices %d, expansion %g", it.Index, it.HostVertices, it.Expansion)
	}
	return nil
}

// checkEmbedItems checks an embed response's items against the request.
func checkEmbedItems(r request, items []embedItem) error {
	if len(items) != len(r.sizes) {
		return fmt.Errorf("%d items for %d trees", len(items), len(r.sizes))
	}
	for k, it := range items {
		if it.Index != k {
			return fmt.Errorf("item %d carries index %d", k, it.Index)
		}
		if err := checkItem(it, r.host, r.sizes[k], boundFor(r.host)); err != nil {
			return err
		}
		if r.inj {
			if it.Injective == nil {
				return fmt.Errorf("item %d: injective derivation missing", k)
			}
			if err := checkItem(*it.Injective, hostXTree, r.sizes[k], boundInjective); err != nil {
				return fmt.Errorf("injective: %w", err)
			}
		}
	}
	return nil
}

// embedSig is the part of an embed item that isomorphic guests share.
// The injective derivation is left out: it is recomputed per request from
// the remapped result and depends on the guest's node numbering, so its
// average dilation differs between swapped variants of one shape (its
// Theorem 2 bounds still hold and are checked).
type embedSig struct {
	n, height, dilation, load int
	vertices                  int64
	avgDilation, expansion    float64
}

func sigOf(it embedItem) embedSig {
	return embedSig{n: it.N, height: it.Height, dilation: it.Dilation, load: it.MaxLoad,
		vertices: it.HostVertices, avgDilation: it.AvgDilation, expansion: it.Expansion}
}

type embedKey struct {
	shape int
	host  string
	inj   bool
}

// simAnswer is what every run of one simulate body must reproduce.
type simAnswer struct {
	sim   simCounters
	ideal int
}

// checker holds the first answer seen for each repeated input, so later
// answers can be compared with it.  Safe for concurrent use.
type checker struct {
	mu    sync.Mutex
	embed map[embedKey]embedSig
	sim   map[int]simAnswer
}

func newChecker() *checker {
	return &checker{embed: map[embedKey]embedSig{}, sim: map[int]simAnswer{}}
}

// embedBody checks a /v1/embed response body.
func (c *checker) embedBody(r request, body []byte) error {
	var resp embedResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode embed response: %w", err)
	}
	if err := checkEmbedItems(r, resp.Items); err != nil {
		return err
	}
	if r.shape < 0 {
		return nil
	}
	key := embedKey{r.shape, r.host, r.inj}
	sig := sigOf(resp.Items[0])
	c.mu.Lock()
	defer c.mu.Unlock()
	if first, ok := c.embed[key]; !ok {
		c.embed[key] = sig
	} else if first != sig {
		return fmt.Errorf("shape %d on %s: swapped variant got %+v, first answer %+v", r.shape, r.host, sig, first)
	}
	return nil
}

// simulateBody checks a /v1/simulate response body.
func (c *checker) simulateBody(r request, body []byte) error {
	var resp simulateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode simulate response: %w", err)
	}
	return c.simulate(r, resp)
}

func (c *checker) simulate(r request, resp simulateResponse) error {
	if err := checkItem(resp.Embed, hostXTree, r.sizes[0], boundXTree); err != nil {
		return fmt.Errorf("embed: %w", err)
	}
	s := resp.Sim
	if s.Cycles < 1 || s.Delivered < 1 || s.HopsTotal < 0 || s.Unreachable != 0 {
		return fmt.Errorf("sim counters %+v", s)
	}
	if r.baseline {
		if resp.IdealCycles < 1 || math.Abs(resp.Slowdown-float64(s.Cycles)/float64(resp.IdealCycles)) > 1e-9 {
			return fmt.Errorf("baseline: ideal_cycles %d slowdown %g for %d cycles", resp.IdealCycles, resp.Slowdown, s.Cycles)
		}
	} else if resp.IdealCycles != 0 || resp.Slowdown != 0 {
		return fmt.Errorf("baseline fields set without a baseline request")
	}
	if r.partitions > 1 {
		if resp.Dist == nil || resp.Dist.Partitions != r.partitions || len(resp.Dist.Shards) != r.partitions {
			return fmt.Errorf("dist %+v for partitions=%d", resp.Dist, r.partitions)
		}
		hops := 0
		for _, sh := range resp.Dist.Shards {
			hops += sh.Hops
		}
		if hops != s.HopsTotal {
			return fmt.Errorf("shard hops sum to %d, hops_total %d", hops, s.HopsTotal)
		}
	} else if resp.Dist != nil {
		return fmt.Errorf("dist set on a single-process run")
	}
	return c.sameSim(r.shape, simAnswer{s, resp.IdealCycles})
}

// sameSim records the first answer for a simulate body and compares every
// later one with it.
func (c *checker) sameSim(base int, a simAnswer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if first, ok := c.sim[base]; !ok {
		c.sim[base] = a
	} else if first != a {
		return fmt.Errorf("body %d: answer %+v differs from the first answer %+v", base, a, first)
	}
	return nil
}

// streamState follows one NDJSON session stream line by line.
type streamState struct {
	session string
	ring    uint64 // ring events read: every line but heartbeats and dropped markers
	dropped uint64 // events the dropped markers report lost
	next    uint64 // stream_seq the next ring event must carry
	start   *embedItem
	result  *simulateResponse
}

func (s *streamState) line(b []byte) error {
	e, err := telemetry.DecodeEvent(b)
	if err != nil {
		return err
	}
	if s.result != nil {
		return fmt.Errorf("%q event after the result event", e.Type)
	}
	switch e.Type {
	case telemetry.EventHeartbeat:
		return nil
	case telemetry.EventDropped:
		s.dropped += e.Dropped
		s.next += e.Dropped
		return nil
	case telemetry.EventError:
		return fmt.Errorf("session failed: %s", e.Reason)
	}
	if e.StreamSeq != s.next {
		return fmt.Errorf("stream_seq %d, want %d", e.StreamSeq, s.next)
	}
	if s.session != "" && e.Session != s.session {
		return fmt.Errorf("event of session %q in stream %q", e.Session, s.session)
	}
	s.next++
	s.ring++
	switch e.Type {
	case telemetry.EventStart:
		var st streamStart
		if err := json.Unmarshal(e.Payload, &st); err != nil {
			return fmt.Errorf("start payload: %w", err)
		}
		s.start = &st.Embed
	case telemetry.EventResult:
		var resp simulateResponse
		if err := json.Unmarshal(e.Payload, &resp); err != nil {
			return fmt.Errorf("result payload: %w", err)
		}
		s.result = &resp
	}
	if s.start == nil && s.dropped == 0 {
		return fmt.Errorf("first event is %q, want %q", e.Type, telemetry.EventStart)
	}
	return nil
}

// finish checks the ended stream and returns its result.
func (s *streamState) finish() (simulateResponse, error) {
	if s.result == nil {
		return simulateResponse{}, errors.New("stream ended without a result event")
	}
	if s.start != nil && sigOf(*s.start) != sigOf(s.result.Embed) {
		return simulateResponse{}, fmt.Errorf("start embed %+v differs from the result's %+v", *s.start, s.result.Embed)
	}
	return *s.result, nil
}

// published is the number of events the session published into its ring.
func (s *streamState) published() uint64 { return s.ring + s.dropped }
