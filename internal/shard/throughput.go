package shard

import (
	"errors"
	"fmt"

	"tcpdemux/internal/core"
	"tcpdemux/internal/hashfn"
	"tcpdemux/internal/parallel"
	"tcpdemux/internal/telemetry"
)

// ThroughputConfig parameterizes one MeasureSharded run.
type ThroughputConfig struct {
	// Shards is the number of queues (>= 1; 1 is the single-queue
	// baseline every speedup is measured against).
	Shards int
	// TotalOps is the number of lookup operations across all shards; each
	// shard performs its steering-weighted share.
	TotalOps int
	// Stream is the recorded TPC/A lookup sequence (parallel.TPCAStream).
	Stream []parallel.Op
	// Keys is the full connection population to insert; each shard
	// receives only the keys that steer to it.
	Keys []core.Key
	// NewDemuxer builds one shard's private discipline. Required.
	NewDemuxer func(shard int) core.Demuxer
	// SteerKey is the RSS steering secret (DefaultKeyed if zero-valued
	// keys are fine for a bench; pass hashfn.DefaultKeyed).
	SteerKey hashfn.Keyed
	// Metrics, when non-nil, receives each worker's LocalDemux
	// observations (flushed at worker exit, the single-writer contract).
	Metrics *telemetry.DemuxMetrics
}

// ThroughputResult reports one measured sharded run: the aggregate rate
// (total operations across every shard over the wall-clock window, Stats
// merged across shards) plus the steering split, so reports can show the
// partition balance.
type ThroughputResult struct {
	parallel.ThroughputResult
	PerShardOps  []int
	PerShardPCBs []int
}

// MeasureSharded measures the multi-queue configuration the way a NIC
// with RSS would run it: the inbound stream is pre-partitioned by the
// keyed steering hash (that work happens in silicon on real hardware, so
// it is untimed here), each shard's private demuxer is populated with
// exactly the connections that steer to it, and then N workers drain
// their private sub-streams concurrently through parallel.Replay — no
// locks, no shared mutable state, per-worker LocalDemux observation
// flushed at exit. The tables are bare single-writer core.Demuxers: in
// the sharded model each is owned by exactly one worker, so the whole
// synchronization budget of the parallel disciplines (the global lock,
// the chain locks) simply disappears from the packet path.
//
// The Shards=1 run of the same configuration is the single-queue
// baseline. The speedup at N has two independent sources: core
// parallelism (N workers on N cores), and the paper's C(N) partitioning
// effect — each shard's table holds ~1/N of the PCBs, so every chained
// lookup walks a proportionally shorter chain. The second source pays
// even on a single core, which is what makes the sweep meaningful on
// small hosts.
func MeasureSharded(cfg ThroughputConfig) (ThroughputResult, error) {
	switch {
	case cfg.Shards < 1:
		return ThroughputResult{}, errors.New("shard: need at least one shard")
	case cfg.TotalOps < 1:
		return ThroughputResult{}, errors.New("shard: need at least one op")
	case len(cfg.Stream) == 0:
		return ThroughputResult{}, errors.New("shard: empty lookup stream")
	case cfg.NewDemuxer == nil:
		return ThroughputResult{}, errors.New("shard: NewDemuxer is required")
	}
	steer := NewSteering(cfg.Shards, cfg.SteerKey)

	// Untimed RSS model: split the recorded stream and the connection
	// population by steering hash.
	workers := make([]parallel.Worker, cfg.Shards)
	for _, op := range cfg.Stream {
		w := &workers[steer.Shard(op.Key.Tuple())]
		w.Stream = append(w.Stream, op)
	}
	demux := make([]core.Demuxer, cfg.Shards)
	pcbs := make([]int, cfg.Shards)
	for i := range demux {
		demux[i] = cfg.NewDemuxer(i)
	}
	for _, k := range cfg.Keys {
		i := steer.Shard(k.Tuple())
		if err := demux[i].Insert(core.NewPCB(k)); err != nil {
			return ThroughputResult{}, fmt.Errorf("shard %d: %w", i, err)
		}
		pcbs[i]++
	}

	// Each shard's op quota is its steering-weighted share of TotalOps —
	// the load a NIC would actually hand it. The rounding remainder goes
	// to the busiest shard, which by construction has a stream to run it
	// on (shard 0 may have none).
	shardOps := make([]int, cfg.Shards)
	assigned, busiest := 0, 0
	for i := range workers {
		shardOps[i] = cfg.TotalOps * len(workers[i].Stream) / len(cfg.Stream)
		assigned += shardOps[i]
		if len(workers[i].Stream) > len(workers[busiest].Stream) {
			busiest = i
		}
	}
	shardOps[busiest] += cfg.TotalOps - assigned

	for i := range workers {
		workers[i].Table, workers[i].Ops = demux[i], shardOps[i]
		if cfg.Metrics != nil {
			l := telemetry.InstrumentLocal(demux[i], cfg.Metrics)
			workers[i].Table, workers[i].Done = l, l.Flush
		}
	}
	res := ThroughputResult{
		ThroughputResult: parallel.Replay(workers),
		PerShardOps:      shardOps,
		PerShardPCBs:     pcbs,
	}
	for _, d := range demux {
		res.Stats.Merge(*d.Stats())
	}
	return res, nil
}
