package server

// distmetrics.go accumulates the counters behind the xtreesim_dist_*
// /metrics families: how often partitioned simulations run, at which
// shard counts, and how much work and cross-shard traffic each shard
// index carries.  Shard indices are stable for a given partitioner and
// host, so per-index series expose load imbalance across requests.

import (
	"sort"
	"sync"

	"xtreesim/internal/distsim"
)

// distMetrics is the mutable state behind the xtreesim_dist_* families.
type distMetrics struct {
	mu            sync.Mutex
	runs          map[int]int64 // partitioned runs, by shard count
	boundaryMsgs  int64
	shardHops     map[int]int64 // link traversals, by shard index
	shardBoundary map[int]int64 // messages shipped cross-shard, by shard index
}

func newDistMetrics() *distMetrics {
	return &distMetrics{
		runs:          make(map[int]int64),
		shardHops:     make(map[int]int64),
		shardBoundary: make(map[int]int64),
	}
}

// record folds one partitioned run's stats into the counters, labelled
// by the shard count that ran.
func (m *distMetrics) record(st distsim.Stats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.runs[len(st.Partitions)]++
	m.boundaryMsgs += int64(st.BoundaryMessages)
	for i, ps := range st.Partitions {
		m.shardHops[i] += int64(ps.Hops)
		m.shardBoundary[i] += int64(ps.BoundaryOut)
	}
}

// distSnapshot is a consistent copy for rendering, keys sorted.
type distSnapshot struct {
	runs          []distCount // by shard count
	boundaryMsgs  int64
	shardHops     []distCount // by shard index
	shardBoundary []distCount // by shard index
}

type distCount struct {
	key   int
	count int64
}

func (m *distMetrics) snapshot() distSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return distSnapshot{
		runs:          sortedCounts(m.runs),
		boundaryMsgs:  m.boundaryMsgs,
		shardHops:     sortedCounts(m.shardHops),
		shardBoundary: sortedCounts(m.shardBoundary),
	}
}

func sortedCounts(in map[int]int64) []distCount {
	out := make([]distCount, 0, len(in))
	for k, v := range in {
		out = append(out, distCount{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}
