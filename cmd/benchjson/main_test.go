package main

import (
	"encoding/json"
	"slices"
	"testing"

	"tcpdemux/internal/parallel"
)

// TestRunSmoke drives a tiny interleaved measurement and checks the
// report's structure: every discipline measured, rounds recorded, best
// rounds populated, the ratio computed.
func TestRunSmoke(t *testing.T) {
	opt := defaults()
	opt.Rounds = 2
	opt.GoMaxProcs = 2
	opt.Workers = 2
	opt.Ops = 2000
	opt.Users = 60
	opt.TxnsPer = 2

	rep, err := run(opt)
	if err != nil {
		t.Fatal(err)
	}
	names := parallel.Disciplines()
	if len(rep.Results) != len(names) {
		t.Fatalf("got %d results", len(rep.Results))
	}
	for _, r := range rep.Results {
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
	if rep.Summary.ShardedOverLocked <= 0 {
		t.Fatalf("ratio not computed: %+v", rep.Summary)
	}
	if len(rep.BestRate) != len(names) {
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

// TestExactColumnsAtCommittedPoints holds at tolerance 0 what is exact in
// the host-dependent shard report, at its committed operating point: the
// sweep's PCBs per shard and mean PCBs examined per lookup
// (BENCH_shard.json: n=6000, 200k lookups, seed 7, 19 chains). Both
// follow from the seed, not the host. One round suffices: every round
// examines the same PCBs. The committed BENCH_shard.json was measured before the harness stopped
// crediting the rounding remainder to an idle shard; its examined column
// differs from these by at most 1e-4.
func TestExactColumnsAtCommittedPoints(t *testing.T) {
	opt := defaults()
	opt.Rounds, opt.Ops, opt.Users = 1, 200_000, 6000
	rep, err := runShard(opt)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]struct {
		pcbs     []int
		examined float64
	}{
		"sequent-1q":        {[]int{6000}, 160.095235},
		"sequent-2q":        {[]int{2883, 3117}, 81.051375},
		"sequent-4q":        {[]int{1450, 1552, 1433, 1565}, 40.714415},
		"sequent-8q":        {[]int{714, 810, 713, 758, 736, 742, 720, 807}, 19.788805},
		"flat-hopscotch-1q": {[]int{6000}, 1.289755},
		"flat-hopscotch-2q": {[]int{2883, 3117}, 1.303795},
		"flat-hopscotch-4q": {[]int{1450, 1552, 1433, 1565}, 1.5437},
		"flat-hopscotch-8q": {[]int{714, 810, 713, 758, 736, 742, 720, 807}, 1.671005},
	}
	if len(rep.Results) != len(want) {
		t.Fatalf("got %d shard rows, want %d", len(rep.Results), len(want))
	}
	for _, r := range rep.Results {
		w := want[r.Discipline]
		if !slices.Equal(r.PerShardPCBs, w.pcbs) || r.Best.MeanExamined != w.examined {
			t.Errorf("%s: PCBs per shard %v, examined %v; want %v, %v",
				r.Discipline, r.PerShardPCBs, r.Best.MeanExamined, w.pcbs, w.examined)
		}
	}
}
