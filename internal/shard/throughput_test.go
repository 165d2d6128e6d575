package shard

import (
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/hashfn"
	"tcpdemux/internal/parallel"
	"tcpdemux/internal/telemetry"
	"tcpdemux/internal/tpca"
)

// shardBenchInputs builds the TPC/A population and lookup stream the
// sharded throughput tests replay.
func shardBenchInputs(t *testing.T, users int) ([]parallel.Op, []core.Key) {
	t.Helper()
	stream, err := parallel.TPCAStream(users, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]core.Key, users)
	for i := range keys {
		keys[i] = tpca.UserKey(i)
	}
	return stream, keys
}

// TestMeasureShardedPartitionEffect is the deterministic half of the
// sharding claim: with a fixed number of chains per table, steering the
// population across 4 private tables leaves each chain ~4x shorter, so
// the same lookup stream examines ~4x fewer PCBs in total. This is the
// paper's C(N) argument and it holds on any host, independent of core
// count — wall-clock speedup (BENCH_shard.json) layers on top.
func TestMeasureShardedPartitionEffect(t *testing.T) {
	const users = 4000
	stream, keys := shardBenchInputs(t, users)
	run := func(shards, ops int, stream []parallel.Op) ThroughputResult {
		res, err := MeasureSharded(ThroughputConfig{
			Shards:   shards,
			TotalOps: ops,
			Stream:   stream,
			Keys:     keys,
			NewDemuxer: func(int) core.Demuxer {
				return core.NewSequentHash(0, hashfn.Multiplicative{})
			},
			SteerKey: hashfn.NewKeyed(0xfeed, 0xf00d),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	single := run(1, 40_000, stream)
	quad := run(4, 40_000, stream)
	// A stream shorter than the shard count leaves most sub-streams (shard
	// 0's among them) empty: the harness must still perform, and report,
	// every operation it was asked for.
	short := run(8, 10, stream[:3])
	if short.Ops != 10 {
		t.Fatalf("short stream: %d ops performed, want 10", short.Ops)
	}

	for _, res := range []ThroughputResult{single, quad, short} {
		gotPCBs, gotOps := 0, 0
		for i := range res.PerShardPCBs {
			gotPCBs += res.PerShardPCBs[i]
			gotOps += res.PerShardOps[i]
		}
		if gotPCBs != users {
			t.Fatalf("PerShardPCBs sums to %d, want %d", gotPCBs, users)
		}
		if gotOps != res.Ops {
			t.Fatalf("PerShardOps sums to %d, want %d", gotOps, res.Ops)
		}
		if res.Stats.Lookups != uint64(res.Ops) {
			t.Fatalf("Stats.Lookups = %d, want %d", res.Stats.Lookups, res.Ops)
		}
		if res.Stats.Misses != 0 {
			t.Fatalf("%d misses replaying the recorded stream", res.Stats.Misses)
		}
	}

	// Steering must have spread the population: no shard empty, none
	// holding more than half the users.
	for i, n := range quad.PerShardPCBs {
		if n == 0 || n > users/2 {
			t.Fatalf("shard %d holds %d/%d PCBs: steering unbalanced %v",
				i, n, users, quad.PerShardPCBs)
		}
	}

	meanSingle := single.Stats.MeanExamined()
	meanQuad := quad.Stats.MeanExamined()
	if ratio := meanSingle / meanQuad; ratio < 2.5 {
		t.Fatalf("partition effect too weak: examined/lookup %0.1f single vs %0.1f at 4 shards (%.2fx, want >= 2.5x)",
			meanSingle, meanQuad, ratio)
	}
}

// TestMeasureShardedMetrics drives the replay under a LocalDemux
// observer and checks the observations land in the shared metrics after
// the per-worker flush.
func TestMeasureShardedMetrics(t *testing.T) {
	const users = 512
	stream, keys := shardBenchInputs(t, users)
	reg := telemetry.NewRegistry()
	m := telemetry.NewDemuxMetrics(reg, "shard-test")
	res, err := MeasureSharded(ThroughputConfig{
		Shards:   2,
		TotalOps: 10_000,
		Stream:   stream,
		Keys:     keys,
		NewDemuxer: func(int) core.Demuxer {
			return core.NewSequentHash(0, hashfn.Multiplicative{})
		},
		SteerKey: hashfn.NewKeyed(3, 5),
		Metrics:  m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Lookups != uint64(res.Ops) {
		t.Fatalf("Stats.Lookups = %d, want %d", res.Stats.Lookups, res.Ops)
	}
	if h := m.ExaminedSnapshot(); h.Count != uint64(res.Ops) {
		t.Fatalf("LocalDemux flushed %d observations, want %d", h.Count, res.Ops)
	}
}

// TestMeasureShardedRejectsBadConfig exercises the validation arms.
func TestMeasureShardedRejectsBadConfig(t *testing.T) {
	stream, keys := shardBenchInputs(t, 8)
	newDemux := func(int) core.Demuxer { return core.NewMapDemux() }
	bad := []ThroughputConfig{
		{Shards: 0, TotalOps: 1, Stream: stream, Keys: keys, NewDemuxer: newDemux},
		{Shards: 1, TotalOps: 0, Stream: stream, Keys: keys, NewDemuxer: newDemux},
		{Shards: 1, TotalOps: 1, Stream: nil, Keys: keys, NewDemuxer: newDemux},
		{Shards: 1, TotalOps: 1, Stream: stream, Keys: keys},
	}
	for i, cfg := range bad {
		if _, err := MeasureSharded(cfg); err == nil {
			t.Fatalf("config %d accepted, want error", i)
		}
	}
}
