package main

import "tcpdemux/internal/cachesim"

// The cache workload (BENCH_cache.json) is the internal/cachesim model
// of the two lookup layouts EXP-CACHE compares: a chained Sequent table
// and the flat table's contiguous probe window, replayed on the Era1992
// hierarchy at the given population, chain count and seed. It measures
// nothing on the host, so the report is exact for its arguments and is a
// golden; the measured comparison of the two layouts is EXP-SHARD's
// single-queue rows (sequent-1q, flat-hopscotch-1q), on private tables
// looked up one key at a time.

// modelEstimate is one internal/cachesim replay: mean entries/PCBs
// examined per lookup and mean estimated stall-inclusive cycles per
// lookup on the Era1992 hierarchy.
type modelEstimate struct {
	Layout          string  `json:"layout"`
	MeanExamined    float64 `json:"meanExamined"`
	CyclesPerLookup float64 `json:"cyclesPerLookup"`
}

// cacheReport is the cache-workload JSON document (BENCH_cache.json).
type cacheReport struct {
	Benchmark string          `json:"benchmark"`
	Config    map[string]any  `json:"config"`
	Model     []modelEstimate `json:"cacheModel"`
}

// runCache replays the chained and flat lookup patterns through
// internal/cachesim, each on a fresh model, and assembles the report.
func runCache(opt options) (*cacheReport, error) {
	lookups := max(4*opt.Users, 2000)
	ms, err := cachesim.NewModel(cachesim.Era1992, opt.Users, opt.Seed)
	if err != nil {
		return nil, err
	}
	seq := cachesim.SequentLookups(ms, opt.Users, opt.Chains, lookups, opt.Seed)
	mf, err := cachesim.NewModel(cachesim.Era1992, opt.Users, opt.Seed)
	if err != nil {
		return nil, err
	}
	flat := cachesim.FlatLookups(mf, opt.Users, lookups, opt.Seed)
	return &cacheReport{
		Benchmark: "cachesim model: chained Sequent layout vs flat probe window, TPC/A population",
		Config:    map[string]any{"users": opt.Users, "chains": opt.Chains, "seed": opt.Seed},
		Model: []modelEstimate{
			{Layout: "chained-sequent", MeanExamined: float64(seq.Examined), CyclesPerLookup: seq.Cycles},
			{Layout: "flat-window", MeanExamined: float64(flat.Examined), CyclesPerLookup: flat.Cycles},
		},
	}, nil
}
