package main

import (
	"encoding/json"
	"testing"
)

// TestRunSmoke drives a tiny interleaved measurement and checks the
// report's structure: every discipline measured in both modes, rounds
// recorded, best rounds populated, ratios computed.
func TestRunSmoke(t *testing.T) {
	opt := defaults()
	opt.Rounds = 2
	opt.GoMaxProcs = 2
	opt.Workers = 2
	opt.Ops = 2000
	opt.Users = 60
	opt.TxnsPer = 2
	opt.Batch = 16

	rep, err := run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2*len(disciplinesUnder) {
		t.Fatalf("got %d results", len(rep.Results))
	}
	seen := map[string]bool{}
	for _, r := range rep.Results {
		seen[r.Discipline+"/"+r.Mode] = true
		if len(r.Rounds) != opt.Rounds {
			t.Fatalf("%s/%s: %d rounds", r.Discipline, r.Mode, len(r.Rounds))
		}
		if r.Best.LookupsPerSec <= 0 || r.Best.NsPerOp <= 0 {
			t.Fatalf("%s/%s: empty best round %+v", r.Discipline, r.Mode, r.Best)
		}
		if r.Best.MeanExamined < 1 {
			t.Fatalf("%s/%s: implausible examinations %+v", r.Discipline, r.Mode, r.Best)
		}
	}
	for _, d := range disciplinesUnder {
		if !seen[d+"/perpacket"] || !seen[d+"/batch16"] {
			t.Fatalf("missing modes for %s: %v", d, seen)
		}
	}
	if rep.Summary.RcuOverLocked <= 0 || rep.Summary.RcuOverSharded <= 0 {
		t.Fatalf("ratios not computed: %+v", rep.Summary)
	}
	if len(rep.BestRate) != len(disciplinesUnder) {
		t.Fatalf("best rates: %+v", rep.BestRate)
	}

	// The report must round-trip as JSON (the artifact format).
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back report
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Summary != rep.Summary {
		t.Fatalf("summary did not round-trip: %+v vs %+v", back.Summary, rep.Summary)
	}
}

// TestRunEmbedsTelemetry checks the parallel report carries per-round
// examined percentiles and the accumulated registry snapshot.
func TestRunEmbedsTelemetry(t *testing.T) {
	opt := defaults()
	opt.Rounds = 1
	opt.GoMaxProcs = 2
	opt.Workers = 2
	opt.Ops = 1000
	opt.Users = 40
	opt.TxnsPer = 2
	opt.Batch = 0

	rep, err := run(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if r.Best.ExaminedP99 < r.Best.ExaminedP50 {
			t.Fatalf("%s: p99 %.1f < p50 %.1f", r.Discipline, r.Best.ExaminedP99, r.Best.ExaminedP50)
		}
		if r.Best.ExaminedP50 <= 0 {
			t.Fatalf("%s: empty percentiles %+v", r.Discipline, r.Best)
		}
	}
	// Each config registers one examined histogram per lookup outcome;
	// grouped by discipline label they must cover every config, with a
	// non-zero total per discipline.
	perDiscipline := map[string]uint64{}
	for _, h := range rep.Telemetry.Histograms {
		if h.Name != "demux_examined_pcbs" {
			continue
		}
		for _, l := range h.Labels {
			if l.Key == "discipline" {
				perDiscipline[l.Value] += h.Count
			}
		}
	}
	if len(perDiscipline) != len(rep.Results) {
		t.Fatalf("telemetry block covers %d disciplines for %d configs: %v",
			len(perDiscipline), len(rep.Results), perDiscipline)
	}
	for d, n := range perDiscipline {
		if n == 0 {
			t.Fatalf("empty accumulated histograms for %s", d)
		}
	}
}

// TestRunAdversarialReport drives a tiny adversarial measurement and
// checks the JSON document's structure and invariants.
func TestRunAdversarialReport(t *testing.T) {
	opt := defaults()
	opt.Ops = 40_000 // attackN = ops/50 = 800
	opt.Seed = 42

	rep, err := runAdversarial(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 2 {
		t.Fatalf("got %d tables", len(rep.Tables))
	}
	und, guarded := rep.Tables[0], rep.Tables[1]
	if und.Table != "sequent-undefended" || guarded.Table != "guarded-sequent" {
		t.Fatalf("table order wrong: %+v", rep.Tables)
	}
	if und.AttackedMean <= guarded.AttackedMean {
		t.Fatalf("defense did not help: undefended %.1f vs guarded %.1f",
			und.AttackedMean, guarded.AttackedMean)
	}
	if guarded.Rekeys == 0 {
		t.Fatalf("guarded table never rekeyed")
	}
	if !rep.Flood.ClientEstablished {
		t.Fatalf("legitimate client failed during flood: %+v", rep.Flood)
	}
	if rep.Flood.CookiesSent == 0 {
		t.Fatalf("no cookies issued: %+v", rep.Flood)
	}
	if len(rep.Telemetry.Histograms) == 0 || len(rep.Telemetry.Counters) == 0 {
		t.Fatalf("telemetry snapshot empty")
	}
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back advReport
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Flood != rep.Flood {
		t.Fatalf("flood block did not round-trip")
	}
}
