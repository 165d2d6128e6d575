package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tcpdemux/internal/telemetry"
	"tcpdemux/internal/workload"
)

func TestRunTPCA(t *testing.T) {
	var b strings.Builder
	err := run(&b, "tpca", []string{"bsd", "sequent"}, 100, 0.2, 0.001, 19, 5, 1, "", "multiplicative", "tpca")
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"bsd", "sequent-19", "workload=tpca", "model"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunPolling(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "polling", []string{"mtf"}, 50, 0.2, 0.001, 19, 3, 1, "", "multiplicative", "tpca"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "(entry)") {
		t.Errorf("polling output missing deterministic MTF model:\n%s", b.String())
	}
}

func TestRunTrains(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "trains", []string{"bsd"}, 4, 0, 0, 19, 2, 1, "", "multiplicative", "tpca"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "workload=trains") {
		t.Errorf("trains output wrong:\n%s", b.String())
	}
}

func TestRunLossyWorkload(t *testing.T) {
	var b strings.Builder
	if err := runLossy(&b, []string{"bsd", "sequent"}, 10, 4, 19, 1, 0.2, 0.05, "multiplicative"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"workload=lossy", "retransmits", "bsd", "sequent-19"} {
		if !strings.Contains(out, want) {
			t.Errorf("lossy output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "NO") {
		t.Errorf("lossy exchange failed to complete:\n%s", out)
	}
	if err := runLossy(&b, []string{"bsd"}, 10, 4, 19, 1, 0.2, 0.05, "bogus-hash"); err == nil {
		t.Error("unknown hash accepted")
	}
}

func TestRunUnknownWorkloadAndAlgo(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "bogus", []string{"bsd"}, 10, 0.2, 0, 19, 1, 1, "", "multiplicative", "tpca"); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if err := run(&b, "tpca", []string{"bogus"}, 10, 0.2, 0, 19, 1, 1, "", "multiplicative", "tpca"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestRecordAndReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace")
	var b strings.Builder
	if err := run(&b, "tpca", []string{"sequent"}, 50, 0.2, 0.001, 19, 4, 1, path, "multiplicative", "tpca"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "recorded") {
		t.Fatalf("no record confirmation:\n%s", b.String())
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file missing or empty: %v", err)
	}
	var rb strings.Builder
	if err := runReplay(&rb, path, []string{"bsd", "map"}, 19, "multiplicative"); err != nil {
		t.Fatal(err)
	}
	out := rb.String()
	if !strings.Contains(out, "bsd") || !strings.Contains(out, "map") {
		t.Fatalf("replay output wrong:\n%s", out)
	}
}

func TestReplayMissingFile(t *testing.T) {
	var b strings.Builder
	if err := runReplay(&b, "/nonexistent/trace", []string{"bsd"}, 19, "multiplicative"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestModelStrings(t *testing.T) {
	cases := map[string]string{
		"bsd":          "51.0", // BSD(100) = 1 + 9999/200 ≈ 51.0
		"map":          "1.0",
		"direct-index": "1.0",
		"bogus":        "-",
	}
	for algo, want := range cases {
		if got := model("tpca", algo, 100, 0.2, 0.001, 19); !strings.Contains(got, want) {
			t.Errorf("model(%s) = %q, want containing %q", algo, got, want)
		}
	}
	if got := model("polling", "mtf", 100, 0.2, 0.001, 19); !strings.Contains(got, "99") {
		t.Errorf("polling mtf model = %q", got)
	}
}

func TestRunChurnWorkload(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "churn", []string{"sequent"}, 30, 0.2, 0.001, 19, 3, 1, "", "multiplicative", "tpca"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "workload=churn") || !strings.Contains(b.String(), "time-wait") {
		t.Fatalf("churn output wrong:\n%s", b.String())
	}
}

func TestRunBadHashName(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "tpca", []string{"sequent"}, 10, 0.2, 0.001, 19, 1, 1, "", "bogus-hash", "tpca"); err == nil {
		t.Fatal("unknown hash accepted")
	}
}

func TestThinkDistFlag(t *testing.T) {
	for _, name := range []string{"tpca", "exp", "const", "uniform", "mix"} {
		if _, err := thinkDist(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := thinkDist("bogus"); err == nil {
		t.Error("bogus think law accepted")
	}
	var b strings.Builder
	if err := run(&b, "tpca", []string{"mtf"}, 40, 0.2, 0.001, 19, 3, 1, "", "multiplicative", "uniform"); err != nil {
		t.Fatal(err)
	}
}

func advCfg(reg *telemetry.Registry) workload.AdversarialConfig {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return workload.AdversarialConfig{
		Chains: 19, Seed: 42, Hash: "multiplicative",
		AttackN: 1200, FloodN: 600, Cookies: true,
		Registry: reg,
	}
}

func TestRunAdversarialWorkload(t *testing.T) {
	var b strings.Builder
	if err := runAdversarial(&b, advCfg(nil), ""); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"workload=adversarial", "sequent (undefended)", "guarded-sequent",
		"rekeys", "client-established", "cookies-sent",
		"[3] telemetry snapshot",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("adversarial output missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "client-established") && !strings.Contains(line, "true") {
			t.Errorf("legitimate client did not connect during flood: %s", line)
		}
	}
	bad := advCfg(nil)
	bad.Hash = "bogus-hash"
	if err := runAdversarial(&b, bad, ""); err == nil {
		t.Error("unknown hash accepted")
	}
}

// TestAdversarialSnapshotUnified is the ISSUE's centerpiece acceptance:
// one registry snapshot from the adversarial run must show, together,
// the per-discipline examined histograms, a chain-skew gauge, a rekey
// count, and the per-reason drop counters.
func TestAdversarialSnapshotUnified(t *testing.T) {
	reg := telemetry.NewRegistry()
	var b strings.Builder
	if err := runAdversarial(&b, advCfg(reg), ""); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	find := func(names []string, name, labelVal string) bool {
		for _, n := range names {
			if n == name+"|"+labelVal {
				return true
			}
		}
		return false
	}
	var hists, counters, gauges []string
	for _, h := range snap.Histograms {
		v := ""
		if len(h.Labels) > 0 {
			v = h.Labels[0].Value
		}
		hists = append(hists, h.Name+"|"+v)
	}
	for _, c := range snap.Counters {
		v := ""
		if len(c.Labels) > 0 {
			v = c.Labels[0].Value
		}
		counters = append(counters, c.Name+"|"+v)
	}
	for _, g := range snap.Gauges {
		v := ""
		if len(g.Labels) > 0 {
			v = g.Labels[0].Value
		}
		gauges = append(gauges, g.Name+"|"+v)
	}
	for _, d := range []string{"sequent-undefended", "guarded-sequent"} {
		if !find(hists, "demux_examined_pcbs", d) {
			t.Errorf("snapshot missing examined histogram for %s", d)
		}
	}
	if !find(gauges, "overload_chain_skew", "guarded-sequent") {
		t.Errorf("snapshot missing chain-skew gauge")
	}
	if !find(counters, "overload_rekeys_total", "guarded-sequent") {
		t.Errorf("snapshot missing rekey counter")
	}
	if !find(counters, "engine_cookies_sent_total", "") {
		t.Errorf("snapshot missing cookie counter")
	}
	if !find(counters, "engine_dropped_total", "bad-cookie") {
		t.Errorf("snapshot missing per-reason drop counters")
	}
	var rekeys uint64
	for _, c := range snap.Counters {
		if c.Name == "overload_rekeys_total" {
			rekeys += c.Value
		}
	}
	if rekeys == 0 {
		t.Errorf("attack run recorded zero rekeys")
	}
}

// TestAdversarialFlightDeterministic runs the workload twice with the
// same seed and requires byte-identical flight-recorder exports.
func TestAdversarialFlightDeterministic(t *testing.T) {
	capture := func() []byte {
		path := filepath.Join(t.TempDir(), "flight.trace")
		var b strings.Builder
		if err := runAdversarial(&b, advCfg(nil), path); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.String(), "flight capture:") {
			t.Fatalf("no flight confirmation:\n%s", b.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	first, second := capture(), capture()
	if len(first) == 0 {
		t.Fatal("flight export is empty")
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("same-seed flight exports differ: %d vs %d bytes", len(first), len(second))
	}
}

// TestMetricsEndpoint is the -metrics smoke test: run the adversarial
// workload into a registry, serve it, scrape /metrics once, and verify
// the Prometheus text parses and carries the expected series.
func TestMetricsEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	var b strings.Builder
	if err := runAdversarial(&b, advCfg(reg), ""); err != nil {
		t.Fatal(err)
	}
	ms, err := telemetry.StartServer("127.0.0.1:0", reg.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Shutdown(context.Background())
	resp, err := http.Get("http://" + ms.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status %d", resp.StatusCode)
	}
	text := string(body)
	samples := 0
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			parts := strings.Fields(line)
			if len(parts) != 4 || parts[1] != "TYPE" {
				t.Fatalf("malformed comment line %q", line)
			}
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		var v float64
		if _, err := fmt.Sscanf(line[i+1:], "%g", &v); err != nil {
			t.Fatalf("non-numeric value in %q: %v", line, err)
		}
		samples++
	}
	if samples == 0 {
		t.Fatal("scrape returned no samples")
	}
	for _, want := range []string{"demux_examined_pcbs_bucket", "overload_chain_skew", "engine_dropped_total"} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %s:\n%s", want, text)
		}
	}
	jresp, err := http.Get("http://" + ms.Addr() + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(jresp.Body).Decode(&doc); err != nil {
		t.Fatalf("metrics.json did not parse: %v", err)
	}
	if doc["histograms"] == nil {
		t.Fatal("metrics.json missing histograms")
	}
}

// TestRunFailoverWorkload runs the crash at demuxsim's default population
// and fault time, which land the fault while the victim still carries
// traffic: the drain must rehome connections and salvage the frames queued
// on the dead shard.
func TestRunFailoverWorkload(t *testing.T) {
	var b strings.Builder
	err := runFailover(&b, 500, 25, 19, 4, 42, 0.20, 0.05, "multiplicative", "crash")
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"workload=failover", "fault=crash", "drained",
		"completed=true conformant=true", "drains=1", "salvaged-frames=", "balanced=true",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "salvaged-frames=0 ") {
		t.Errorf("the drain salvaged no frames:\n%s", out)
	}
}

// TestRunFailoverWedgeDegrades runs the wedge at the defaults: the busiest
// shard refuses its frames for two virtual seconds while its connections
// are active, so frames are shed at its inbox, and it must degrade without
// a drain.
func TestRunFailoverWedgeDegrades(t *testing.T) {
	var b strings.Builder
	err := runFailover(&b, 500, 25, 19, 4, 42, 0.20, 0.05, "multiplicative", "wedge")
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"fault=wedge", "drains=0", "completed=true conformant=true", "inbox-full=", "balanced=true"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "inbox-full=0 ") {
		t.Errorf("the wedge shed nothing:\n%s", out)
	}
}

func TestRunFailoverBadFault(t *testing.T) {
	var b strings.Builder
	for _, fault := range []string{"meteor", "slow"} {
		if err := runFailover(&b, 4, 2, 19, 4, 1, 0, 0, "multiplicative", fault); err == nil {
			t.Fatalf("fault %q accepted", fault)
		}
	}
	if err := runFailover(&b, 4, 2, 19, 1, 1, 0, 0, "multiplicative", "crash"); err == nil {
		t.Fatal("single-shard failover accepted — there is no survivor to drain to")
	}
}

// TestExactColumnsAtCommittedPoints holds EXP-SHARD's sequent column at
// its committed points: every frame of 6,000 clients × 4 transactions
// through StackSet.Deliver, 19 chains a shard, at 1, 2 and 4 shards, and
// the control row of one 76-chain table. Four 19-chain shards examine
// what one 76-chain table examines: the partition is a chain count.
func TestExactColumnsAtCommittedPoints(t *testing.T) {
	examined := func(chains, shards int) []string {
		var b strings.Builder
		if err := runSharded(&b, []string{"sequent"}, 6000, 4, chains, shards, 42, 0, 0, "multiplicative"); err != nil {
			t.Fatal(err)
		}
		var col []string
		for _, line := range strings.Split(b.String(), "\n") {
			f := strings.Fields(line)
			if len(f) == 0 || f[0] != "sequent" {
				continue
			}
			if f[2] != "yes" || f[3] != "yes" {
				t.Errorf("%d×%d: completed %s, conformant %s", shards, chains, f[2], f[3])
			}
			col = append(col, f[10])
		}
		return col
	}
	if got, want := examined(19, 4), []string{"159.36", "80.58", "41.12"}; !slices.Equal(got, want) {
		t.Errorf("examined at 1, 2, 4 shards × 19 chains = %v, want %v", got, want)
	}
	if got, want := examined(76, 1), []string{"41.07"}; !slices.Equal(got, want) {
		t.Errorf("examined at 1 shard × 76 chains = %v, want %v", got, want)
	}
}
