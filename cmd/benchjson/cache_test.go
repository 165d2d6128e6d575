package main

import (
	"encoding/json"
	"runtime"
	"testing"
)

// TestRunCacheSmoke drives the cache workload at a tiny population and
// checks the report's structure: the chained and flat cachesim estimates,
// the flat one within its probe-window bound. The committed operating
// point's numbers are the BENCH_cache.json golden.
func TestRunCacheSmoke(t *testing.T) {
	opt := defaults()
	opt.Users = 50
	rep, err := runCache(opt)
	if err != nil {
		t.Fatal(err)
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
	if _, err := json.Marshal(rep); err != nil {
		t.Fatal(err)
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
