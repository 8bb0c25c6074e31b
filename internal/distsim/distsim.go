// Package distsim runs a netsim simulation partitioned across N shard
// workers with a two-phase epoch barrier, producing results byte-identical
// to netsim.Run.  A netsim.LinkAudit attached as an observer audits a
// partitioned run like any other: every shard's hops reach it on the
// run's one event stream.
//
// netsim has one runner (RunSharded): a coordinator that keeps the
// workload, sequence numbers, the fault generator and the retransmission
// pool, and shards that own the host's link and memory queues and report
// lists sorted by order keys, which the coordinator merges into one event
// order.  netsim.Run is that runner with one shard.  This package decides
// the partition: how many shards, and which shard owns each host vertex.
package distsim

import (
	"context"
	"fmt"

	"xtreesim/internal/netsim"
)

// MaxPartitions bounds the shard count: every shard but the first runs
// on a goroutine of its own, and the exchange matrix holds P(P−1)
// channels.
const MaxPartitions = 256

// Config describes one partitioned run.
type Config struct {
	// Sim is the underlying simulation config.
	Sim netsim.Config
	// Partitions is the number of shards; values ≤ 1 run one shard, the
	// run netsim.Run makes.  A host with fewer vertices than Partitions
	// gets one shard per vertex.
	Partitions int
	// Partition picks the vertex-to-shard map; nil means Blocks.
	Partition Partitioner
	// ShardSampler, when set, receives one ShardSample per shard per
	// executed cycle.  It is called synchronously on the coordinator
	// goroutine after the fire barrier, so it must be cheap and
	// non-blocking (publish into a telemetry ring, not a socket).
	ShardSampler func(ShardSample)
}

// ShardSample is one shard's share of one executed cycle: the live
// telemetry counterpart of the end-of-run PartitionStats.
type ShardSample = netsim.ShardSample

// PartitionStats describes one shard's share of the run.
type PartitionStats = netsim.ShardStats

// Stats describes the distribution of one run.
type Stats struct {
	Partitions       []PartitionStats // one per shard that ran
	BoundaryMessages int              // total cross-shard messages
	// Deprecated: always 0.  Shards hand boundary records over as Go
	// values, so no bytes are encoded.
	BoundaryBytes int64
}

// RunContext simulates the workload across partitions until quiescence,
// exactly like netsim.RunContext but sharded; the context is polled once
// per simulated cycle.
func RunContext(ctx context.Context, cfg Config, wl netsim.Workload) (netsim.Result, error) {
	res, _, err := RunStats(ctx, cfg, wl)
	return res, err
}

// RunStats is RunContext returning per-partition statistics as well.
func RunStats(ctx context.Context, cfg Config, wl netsim.Workload) (netsim.Result, Stats, error) {
	parts := max(cfg.Partitions, 1)
	if parts > MaxPartitions {
		return netsim.Result{}, Stats{}, fmt.Errorf("distsim: %d partitions exceeds the limit of %d", parts, MaxPartitions)
	}
	var owner []int32
	if host := cfg.Sim.Host; host != nil {
		parts = min(parts, host.N())
		part := cfg.Partition
		if part == nil {
			part = Blocks
		}
		owner = part(host, parts)
	}
	res, shards, err := netsim.RunSharded(ctx, cfg.Sim, wl, netsim.Sharding{
		Shards: parts, Owner: owner, Sampler: cfg.ShardSampler})
	st := Stats{Partitions: shards}
	for _, ps := range shards {
		st.BoundaryMessages += ps.BoundaryOut
	}
	return res, st, err
}
