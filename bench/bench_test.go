package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// Same seed, same number of transactions: every count metric must
// repeat exactly, whatever the clock did.
func TestSameSeedSameCounts(t *testing.T) {
	for _, sp := range workloads {
		sp.resident = min(sp.resident, 300) // the checks scale; the paper's 1001 does not
		sp.wantExamined = 0
		a := runRound(sp, 3, 0, 400)
		b := runRound(sp, 3, 0, 400)
		if a.err != nil || b.err != nil {
			t.Fatalf("%s: %v / %v", sp.name, a.err, b.err)
		}
		if a.attempted != b.attempted || a.failed != 0 || b.failed != 0 {
			t.Errorf("%s: attempted %d and %d, failed %d and %d", sp.name, a.attempted, b.attempted, a.failed, b.failed)
		}
		if !reflect.DeepEqual(a.counts, b.counts) {
			t.Errorf("%s: counts differ between two runs of seed 3:\n%v\n%v", sp.name, a.counts, b.counts)
		}
		if other := runRound(sp, 4, 0, 400); !sp.live && reflect.DeepEqual(a.counts, other.counts) {
			t.Errorf("%s: seed 4 gave seed 3's counts: the seed reaches nothing", sp.name)
		}
	}
}

// A short traced run must fill every per-layer metric, agree with its
// shadow tables, and write the span file.
func TestTracedRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("five passes of set-up; skipped in -short mode")
	}
	dir := t.TempDir()
	sp, _ := workloadByName("replay-churn")
	sp.resident = 400
	res := runTraced(sp, 1, 1.0, dir)
	if res.err != nil || res.failed != 0 {
		t.Fatalf("traced run: %v (%d failed)", res.err, res.failed)
	}
	for _, d := range perLayer {
		if _, ok := res.layers[d.Name]; !ok {
			t.Errorf("per-layer metric %s missing", d.Name)
		}
	}
	if res.layers["discipline.shadow_match"] != 1 {
		t.Error("the shadow tables examined something other than the real ones")
	}
	if res.layers["engine.inbound_frames_per_txn"] != 6 {
		t.Errorf("churn: %g inbound frames per transaction, want 6", res.layers["engine.inbound_frames_per_txn"])
	}
	if st, err := os.Stat(dir + "/trace-replay-churn.jsonl"); err != nil || st.Size() == 0 {
		t.Errorf("span file: %v", err)
	}
}

// A failure must be counted and must fail the workload: break the
// expected frame count and see the round refuse.
func TestCheckFailsRound(t *testing.T) {
	sp, _ := workloadByName("replay-oltp")
	sp.resident, sp.inboundPerTxn = 100, 3
	r := runRound(sp, 1, 50*time.Millisecond, 0)
	if r.err == nil || r.failed == 0 {
		t.Fatalf("a round with the wrong frame count passed: err=%v failed=%d", r.err, r.failed)
	}
	if w := untracedResult(sp, []round{r}); w.Correct {
		t.Fatal("a failed round left the workload correct")
	}
}

// BENCHMARK.json and the program must name the same workloads and
// metrics, with the same units, directions and bounds.
func TestContractMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(contract.Workloads), len(workloads))
	}
	for i, w := range contract.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	if !reflect.DeepEqual(contract.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\n%v\nprogram:\n%v", contract.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(contract.PerLayer, perLayer) {
		t.Errorf("per_layer:\n%v\nprogram:\n%v", contract.PerLayer, perLayer)
	}
}
