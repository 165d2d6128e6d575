package main

import (
	"fmt"
	"runtime"

	"tcpdemux/internal/core"
	"tcpdemux/internal/discipline"
	"tcpdemux/internal/hashfn"
	"tcpdemux/internal/parallel"
	"tcpdemux/internal/rng"
	"tcpdemux/internal/shard"
	"tcpdemux/internal/telemetry"
	"tcpdemux/internal/tpca"
)

// shardResult is one discipline/shard-count configuration's measured
// rounds. Every row looks up one key at a time (mode "perpacket"). Discipline carries the shard count ("sequent-4q",
// "flat-hopscotch-4q"), so a discipline/mode pair names a row as it does
// in the other reports.
type shardResult struct {
	Discipline   string  `json:"discipline"`
	Shards       int     `json:"shards"`
	Mode         string  `json:"mode"`
	PerShardPCBs []int   `json:"perShardPCBs"`
	Rounds       []round `json:"rounds"`
	Best         round   `json:"best"`
}

// shardSummary holds the sweep's acceptance ratios: the 4-queue
// configuration against the single-queue baseline, both as measured
// rate and as the deterministic examined-per-lookup partition effect.
type shardSummary struct {
	QuadOverSingle  float64 `json:"quadOverSingle"`
	MeetsQuad3x     bool    `json:"meetsQuad3x"`
	ExaminedSingle  float64 `json:"examinedPerLookupSingle"`
	ExaminedQuad    float64 `json:"examinedPerLookupQuad"`
	ExaminedRatio4x float64 `json:"examinedRatioQuadOverSingle"`

	// FlatQuadOverSingle is the same 4-queue/1-queue rate ratio over the
	// flat-hopscotch per-shard tables — partitioning composed with the
	// cache-conscious layout.
	FlatQuadOverSingle float64 `json:"quadOverSingleFlatHopscotch"`
}

// shardReport is the -workload shard JSON document (BENCH_shard.json).
type shardReport struct {
	Benchmark  string             `json:"benchmark"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	NumCPU     int                `json:"numCPU"`
	GoMaxProcs int                `json:"gomaxprocs"`
	Config     map[string]any     `json:"config"`
	Results    []shardResult      `json:"results"`
	Summary    shardSummary       `json:"summary"`
	BestRate   map[string]float64 `json:"bestLookupsPerSec"`
	Telemetry  telemetry.Snapshot `json:"telemetry"`
}

// shardCounts is the sweep: single-queue baseline, then doubling up to
// the many-queue tail point. The interesting physics is independent of
// host core count — each shard's private table holds ~1/N of the PCBs,
// so with the chain count fixed every lookup walks ~N-times-shorter
// chains (the paper's C(N) partitioning effect). Core parallelism
// multiplies on top where cores exist.
func shardCounts(gomaxprocs int) []int {
	max := 8
	if gomaxprocs > max {
		max = gomaxprocs
	}
	counts := []int{1, 2, 4}
	if max > 4 {
		counts = append(counts, max)
	}
	return counts
}

// shardDisciplines is the per-shard table sweep: the chained Sequent
// baseline the acceptance ratios are defined over, and the
// cache-conscious flat-hopscotch table — partitioning (the paper's C(N)
// effect) and cache-conscious layout compose, so the flat rows measure
// both at once.
var shardDisciplines = []string{"sequent", "flat-hopscotch"}

// runShard measures the sharded multi-queue engine across the shard
// sweep: the same TPC/A stream and connection population, RSS-steered
// across N private per-discipline tables, every round interleaved
// across configurations per the file-header methodology.
func runShard(opt options) (*shardReport, error) {
	prev := runtime.GOMAXPROCS(opt.GoMaxProcs)
	defer runtime.GOMAXPROCS(prev)
	host := hostInfo{NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0)}

	stream, err := parallel.TPCAStream(opt.Users, opt.TxnsPer, opt.Seed)
	if err != nil {
		return nil, err
	}
	keys := make([]core.Key, opt.Users)
	for i := range keys {
		keys[i] = tpca.UserKey(i)
	}
	steerKey := hashfn.KeyedFromRNG(rng.New(opt.Seed ^ 0x5157_9e3779b97f4a))

	sels := make(map[string]discipline.Selection, len(shardDisciplines))
	for _, dn := range shardDisciplines {
		sel, err := discipline.Select(dn, "multiplicative", opt.Chains)
		if err != nil {
			return nil, err
		}
		sels[dn] = sel
	}

	type shardConfig struct {
		disc   string
		shards int
	}
	var configs []shardConfig
	for _, dn := range shardDisciplines {
		for _, n := range shardCounts(opt.GoMaxProcs) {
			configs = append(configs, shardConfig{dn, n})
		}
	}
	// The sequent rows keep their original "shards%d/%s" telemetry and
	// BestRate keys (the summary ratios and downstream tooling read
	// them); the flat rows get discipline-prefixed keys.
	label := func(c shardConfig) string {
		if c.disc == "sequent" {
			return fmt.Sprintf("shards%d/perpacket", c.shards)
		}
		return fmt.Sprintf("%s/shards%d/perpacket", c.disc, c.shards)
	}

	reg := telemetry.NewRegistry()
	results := make([]shardResult, len(configs))
	metrics := make([]*telemetry.DemuxMetrics, len(configs))
	for i, c := range configs {
		results[i] = shardResult{
			Discipline: fmt.Sprintf("%s-%dq", c.disc, c.shards),
			Shards:     c.shards, Mode: "perpacket",
		}
		metrics[i] = telemetry.NewDemuxMetrics(reg, label(c))
	}
	for r := 0; r < opt.Rounds; r++ {
		for i, c := range configs {
			before := metrics[i].ExaminedSnapshot()
			res, err := shard.MeasureSharded(shard.ThroughputConfig{
				Shards:     c.shards,
				TotalOps:   opt.Ops,
				Stream:     stream,
				Keys:       keys,
				NewDemuxer: sels[c.disc].PerShard(),
				SteerKey:   steerKey,
				Metrics:    metrics[i],
			})
			if err != nil {
				return nil, err
			}
			results[i].PerShardPCBs = res.PerShardPCBs
			h := histDiff(metrics[i].ExaminedSnapshot(), before)
			rd := round{
				NsPerOp:       res.NsPerOp,
				LookupsPerSec: res.OpsPerSec,
				MeanExamined:  res.Stats.MeanExamined(),
				CacheHitRate:  res.Stats.HitRate(),
				ExaminedP50:   h.Quantile(0.50),
				ExaminedP90:   h.Quantile(0.90),
				ExaminedP99:   h.Quantile(0.99),
			}
			results[i].Rounds = append(results[i].Rounds, rd)
			if rd.LookupsPerSec > results[i].Best.LookupsPerSec {
				results[i].Best = rd
			}
		}
	}

	best := make(map[string]float64)
	var sum shardSummary
	for i, res := range results {
		best[label(configs[i])] = res.Best.LookupsPerSec
		if configs[i].disc == "sequent" {
			switch res.Shards {
			case 1:
				sum.ExaminedSingle = res.Best.MeanExamined
			case 4:
				sum.ExaminedQuad = res.Best.MeanExamined
			}
		}
	}
	if b := best["shards1/perpacket"]; b > 0 {
		sum.QuadOverSingle = best["shards4/perpacket"] / b
	}
	if sum.ExaminedQuad > 0 {
		sum.ExaminedRatio4x = sum.ExaminedSingle / sum.ExaminedQuad
	}
	sum.MeetsQuad3x = sum.QuadOverSingle >= 3.0
	if b := best["flat-hopscotch/shards1/perpacket"]; b > 0 {
		sum.FlatQuadOverSingle = best["flat-hopscotch/shards4/perpacket"] / b
	}

	return &shardReport{
		Benchmark:  "sharded multi-queue TPC/A sweep (shard.MeasureSharded)",
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     host.NumCPU,
		GoMaxProcs: host.GoMaxProcs,
		Config: map[string]any{
			"users": opt.Users, "txnsPerUser": opt.TxnsPer,
			"totalOps": opt.Ops, "chains": opt.Chains,
			"rounds": opt.Rounds, "seed": opt.Seed,
			"discipline": "sequent-multiplicative", "steering": "siphash-rss",
			"disciplines": shardDisciplines,
			"shardSweep":  shardCounts(opt.GoMaxProcs),
		},
		Results:   results,
		Summary:   sum,
		BestRate:  best,
		Telemetry: reg.Snapshot(),
	}, nil
}
