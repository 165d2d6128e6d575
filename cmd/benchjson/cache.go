package main

import (
	"fmt"
	"runtime"

	"tcpdemux/internal/cachesim"
	"tcpdemux/internal/telemetry"
)

// The cache workload (BENCH_cache.json) pits the chained disciplines
// against the cache-conscious open-addressing table from internal/flat.
// Chained baselines run per-packet and batched (through core.LookupBatch's
// loop — they have no native batch path); the flat table additionally
// sweeps its batch path's prefetch pipeline depth k, since the whole
// point of the software pipeline is to overlap the probe-group line fill
// for packet i+k with the resolution of packet i.
const cacheFlat = "flat-hopscotch"

var (
	cacheChained = []string{"locked-sequent", "rcu-sequent"}
	cacheDepths  = []int{0, 1, 2, 4, 8}
)

// modelEstimate is one internal/cachesim replay embedded beside the
// measured numbers: mean entries/PCBs examined per lookup and mean
// estimated stall-inclusive cycles per lookup on the Era1992 hierarchy.
type modelEstimate struct {
	Layout          string  `json:"layout"`
	MeanExamined    float64 `json:"meanExamined"`
	CyclesPerLookup float64 `json:"cyclesPerLookup"`
}

// cacheSummary holds the EXP-CACHE acceptance numbers: the best flat
// batched configuration against the chained RCU per-packet baseline,
// compared on nsPerOp of their best rounds.
type cacheSummary struct {
	RcuPerPacketNsPerOp       float64        `json:"rcuPerPacketNsPerOp"`
	FlatBatchNsPerOp          float64        `json:"flatBatchNsPerOp"`
	FlatBatchConfig           string         `json:"flatBatchConfig"`
	FlatBatchOverRcuPerPacket float64        `json:"flatBatchOverRcuPerPacket"`
	FlatBatchBeatsRcu         bool           `json:"flatBatchBeatsRcuPerPacket"`
	BestPrefetchDepth         map[string]int `json:"bestPrefetchDepth"`
}

// cacheReport is the cache-workload JSON document (BENCH_cache.json).
type cacheReport struct {
	Benchmark  string         `json:"benchmark"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	NumCPU     int            `json:"numCPU"`
	GoMaxProcs int            `json:"gomaxprocs"`
	Config     map[string]any `json:"config"`
	Results    []result       `json:"results"`
	// Model carries the cachesim stall estimates for the two layouts so
	// EXPERIMENTS.md can show modeled and measured side by side from one
	// artifact.
	Model     []modelEstimate    `json:"cacheModel"`
	Summary   cacheSummary       `json:"summary"`
	Telemetry telemetry.Snapshot `json:"telemetry"`
}

// cacheConfigs builds the measured configuration matrix.
func cacheConfigs(opt options) []benchConfig {
	var configs []benchConfig
	for _, name := range cacheChained {
		configs = append(configs, benchConfig{name, "perpacket", 0, -1})
		if opt.Batch > 1 {
			configs = append(configs, benchConfig{name, fmt.Sprintf("batch%d", opt.Batch), opt.Batch, -1})
		}
	}
	configs = append(configs, benchConfig{cacheFlat, "perpacket", 0, -1})
	if opt.Batch > 1 {
		for _, k := range cacheDepths {
			configs = append(configs, benchConfig{
				cacheFlat, fmt.Sprintf("batch%d-k%d", opt.Batch, k), opt.Batch, k})
		}
	}
	return configs
}

// modelEstimates replays the chained and flat lookup patterns through
// internal/cachesim at the measured population and chain count.
func modelEstimates(opt options) ([]modelEstimate, error) {
	lookups := 4 * opt.Users
	if lookups < 2000 {
		lookups = 2000
	}
	mkModel := func() (*cachesim.Model, error) {
		return cachesim.NewModel(cachesim.Era1992, opt.Users, opt.Seed)
	}
	ms, err := mkModel()
	if err != nil {
		return nil, err
	}
	seq := cachesim.SequentLookups(ms, opt.Users, opt.Chains, lookups, opt.Seed)
	mf, err := mkModel()
	if err != nil {
		return nil, err
	}
	flat := cachesim.FlatLookups(mf, opt.Users, lookups, opt.Seed)
	return []modelEstimate{
		{Layout: "chained-sequent", MeanExamined: float64(seq.Examined), CyclesPerLookup: seq.Cycles},
		{Layout: "flat-window", MeanExamined: float64(flat.Examined), CyclesPerLookup: flat.Cycles},
	}, nil
}

// runCache executes the cache workload and assembles the report.
func runCache(opt options) (*cacheReport, error) {
	if opt.Workers <= 0 {
		opt.Workers = 4 * opt.GoMaxProcs
	}
	results, reg, host, err := measureConfigs(opt, cacheConfigs(opt))
	if err != nil {
		return nil, err
	}
	model, err := modelEstimates(opt)
	if err != nil {
		return nil, err
	}

	sum := cacheSummary{BestPrefetchDepth: map[string]int{}}
	bestDepthNs := map[string]float64{}
	for _, r := range results {
		switch {
		case r.Discipline == "rcu-sequent" && r.Mode == "perpacket":
			sum.RcuPerPacketNsPerOp = r.Best.NsPerOp
		case r.Mode != "perpacket" && r.Discipline == cacheFlat:
			if sum.FlatBatchNsPerOp == 0 || r.Best.NsPerOp < sum.FlatBatchNsPerOp {
				sum.FlatBatchNsPerOp = r.Best.NsPerOp
				sum.FlatBatchConfig = r.Discipline + "/" + r.Mode
			}
			var depth int
			if _, err := fmt.Sscanf(r.Mode, "batch%d-k%d", new(int), &depth); err == nil {
				if ns, seen := bestDepthNs[r.Discipline]; !seen || r.Best.NsPerOp < ns {
					bestDepthNs[r.Discipline] = r.Best.NsPerOp
					sum.BestPrefetchDepth[r.Discipline] = depth
				}
			}
		}
	}
	if sum.FlatBatchNsPerOp > 0 && sum.RcuPerPacketNsPerOp > 0 {
		sum.FlatBatchOverRcuPerPacket = sum.RcuPerPacketNsPerOp / sum.FlatBatchNsPerOp
		sum.FlatBatchBeatsRcu = sum.FlatBatchNsPerOp < sum.RcuPerPacketNsPerOp
	}

	return &cacheReport{
		Benchmark:  "cache-conscious flat tables vs chained disciplines, TPC/A mix",
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     host.NumCPU,
		GoMaxProcs: host.GoMaxProcs,
		Config: map[string]any{
			"users": opt.Users, "txnsPerUser": opt.TxnsPer,
			"readFraction": opt.Read, "workers": opt.Workers,
			"opsPerWorker": opt.Ops, "batch": opt.Batch,
			"chains": opt.Chains, "rounds": opt.Rounds, "seed": opt.Seed,
			"churnKeysPerWorker": opt.ChurnKeys,
			"prefetchDepths":     cacheDepths,
		},
		Results:   results,
		Model:     model,
		Summary:   sum,
		Telemetry: reg.Snapshot(),
	}, nil
}
