package main

import "testing"

// TestRunFailoverReport drives the virtual-time failover workload and
// checks the report's structure: the unfaulted baseline plus both fault
// scenarios, each with detect / recover / complete modes, and a balanced
// conservation ledger; the numbers themselves are the BENCH_failover.json
// golden's to hold. It runs at the defaults — the golden's exact
// operating point — because the watchdog's detection bound assumes
// enough live traffic that a stalled shard's inbox actually queues
// frames; a tiny client population can leave the victim idle and push
// progress-based detection out past the bound.
func TestRunFailoverReport(t *testing.T) {
	rep, err := runFailover(defaults())
	if err != nil {
		t.Fatal(err)
	}

	// Baseline complete + (detect, recover, complete) per fault scenario.
	seen := map[string]float64{}
	for _, r := range rep.Results {
		seen[r.Discipline+"/"+r.Mode] = r.Best.NsPerOp
	}
	for _, key := range []string{
		"failover-none/complete",
		"failover-crash1of4/detect", "failover-crash1of4/recover", "failover-crash1of4/complete",
		"failover-stall1of4/detect", "failover-stall1of4/recover", "failover-stall1of4/complete",
	} {
		ticks, ok := seen[key]
		if !ok {
			t.Fatalf("missing result %s: %v", key, seen)
		}
		if ticks <= 0 {
			t.Fatalf("%s: non-positive virtual-time ticks %v", key, ticks)
		}
	}

	if len(rep.Scenarios) != 2 {
		t.Fatalf("got %d scenarios", len(rep.Scenarios))
	}
	for _, sc := range rep.Scenarios {
		if sc.Drains != 1 || sc.DrainedConns == 0 {
			t.Fatalf("%s: drain ledger %d/%d", sc.Name, sc.Drains, sc.DrainedConns)
		}
		if !sc.Accounting.Balanced() {
			t.Fatalf("%s: unaccounted packet losses: %+v", sc.Name, sc.Accounting)
		}
		if sc.DetectTicks <= 0 || sc.CompleteTicks <= 0 {
			t.Fatalf("%s: implausible latencies %+v", sc.Name, sc)
		}
		if sc.GoodputBefore <= 0 {
			t.Fatalf("%s: no goodput before the fault", sc.Name)
		}
	}
}
