package main

import (
	"encoding/json"
	"runtime"
	"testing"
)

// TestRunCacheSmoke drives a tiny cache-workload measurement and checks
// the report's structure: chained baselines in both modes, the flat table
// per-packet plus the full prefetch-depth sweep, cachesim estimates
// embedded, summary computed against the rcu per-packet baseline.
func TestRunCacheSmoke(t *testing.T) {
	opt := defaults()
	opt.Rounds = 1
	opt.GoMaxProcs = 2
	opt.Workers = 2
	opt.Ops = 800
	opt.Users = 50
	opt.TxnsPer = 2
	opt.Batch = 8

	rep, err := runCache(opt)
	if err != nil {
		t.Fatal(err)
	}
	wantConfigs := 2*len(cacheChained) + 1 + len(cacheDepths)
	if len(rep.Results) != wantConfigs {
		t.Fatalf("got %d results, want %d", len(rep.Results), wantConfigs)
	}
	seen := map[string]bool{}
	for _, r := range rep.Results {
		seen[r.Discipline+"/"+r.Mode] = true
		if r.Best.NsPerOp <= 0 || r.Best.LookupsPerSec <= 0 {
			t.Fatalf("%s/%s: empty best round %+v", r.Discipline, r.Mode, r.Best)
		}
	}
	for _, d := range cacheChained {
		if !seen[d+"/perpacket"] || !seen[d+"/batch8"] {
			t.Fatalf("missing chained modes for %s: %v", d, seen)
		}
	}
	if !seen[cacheFlat+"/perpacket"] {
		t.Fatalf("missing flat perpacket for %s", cacheFlat)
	}
	for _, k := range []string{"batch8-k0", "batch8-k1", "batch8-k2", "batch8-k4", "batch8-k8"} {
		if !seen[cacheFlat+"/"+k] {
			t.Fatalf("missing flat depth mode %s/%s: %v", cacheFlat, k, seen)
		}
	}

	s := rep.Summary
	if s.RcuPerPacketNsPerOp <= 0 || s.FlatBatchNsPerOp <= 0 || s.FlatBatchConfig == "" {
		t.Fatalf("summary baselines missing: %+v", s)
	}
	if s.FlatBatchOverRcuPerPacket <= 0 {
		t.Fatalf("speedup ratio not computed: %+v", s)
	}
	if s.FlatBatchBeatsRcu != (s.FlatBatchNsPerOp < s.RcuPerPacketNsPerOp) {
		t.Fatalf("acceptance bool inconsistent with its inputs: %+v", s)
	}
	k, ok := s.BestPrefetchDepth[cacheFlat]
	if !ok {
		t.Fatalf("no best depth recorded for %s: %+v", cacheFlat, s)
	}
	found := false
	for _, want := range cacheDepths {
		found = found || k == want
	}
	if !found {
		t.Fatalf("best depth %d for %s not in the swept set %v", k, cacheFlat, cacheDepths)
	}

	if len(rep.Model) != 2 {
		t.Fatalf("cachesim block has %d entries, want chained+flat", len(rep.Model))
	}
	for _, m := range rep.Model {
		if m.MeanExamined < 1 || m.CyclesPerLookup <= 0 {
			t.Fatalf("degenerate model estimate %+v", m)
		}
	}
	if rep.Model[1].Layout != "flat-window" || rep.Model[1].MeanExamined > 8 {
		t.Fatalf("flat model estimate out of window bound: %+v", rep.Model[1])
	}

	// The artifact must round-trip as JSON with the host block intact.
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back cacheReport
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.NumCPU != runtime.NumCPU() || back.GoMaxProcs != opt.GoMaxProcs {
		t.Fatalf("host metadata wrong on emitted JSON: numCPU=%d gomaxprocs=%d, want %d/%d",
			back.NumCPU, back.GoMaxProcs, runtime.NumCPU(), opt.GoMaxProcs)
	}
	if back.Summary.FlatBatchConfig != s.FlatBatchConfig || back.Summary.FlatBatchNsPerOp != s.FlatBatchNsPerOp {
		t.Fatalf("summary did not round-trip: %+v vs %+v", back.Summary, s)
	}
}

// TestHostMetadataEmitted is the regression test for the parallel
// report's host block: it must record the actual CPU count and the
// GOMAXPROCS of the measurement, visible after a decode of the marshaled
// bytes.
func TestHostMetadataEmitted(t *testing.T) {
	opt := defaults()
	opt.Rounds = 1
	opt.GoMaxProcs = 2
	opt.Workers = 2
	opt.Ops = 500
	opt.Users = 30
	opt.TxnsPer = 2
	opt.Batch = 0

	pr, err := run(opt)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(pr)
	if err != nil {
		t.Fatal(err)
	}
	var host struct {
		NumCPU     int `json:"numCPU"`
		GoMaxProcs int `json:"gomaxprocs"`
	}
	if err := json.Unmarshal(buf, &host); err != nil {
		t.Fatal(err)
	}
	if host.NumCPU != runtime.NumCPU() || host.GoMaxProcs != opt.GoMaxProcs {
		t.Fatalf("parallel report numCPU=%d gomaxprocs=%d, want %d/%d",
			host.NumCPU, host.GoMaxProcs, runtime.NumCPU(), opt.GoMaxProcs)
	}
}
