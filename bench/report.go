package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// metricDef names one metric as ../BENCHMARK.json lists it;
// contract_test.go holds the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, each with the
// share of the parent's median by which it may worsen. The three timed
// ones have the widest bound the contract allows: README.md, "Noise",
// gives the spreads and the host drift that were measured.
var endToEnd = []metricDef{
	{"txn_per_s", "1/s", "higher", 0.25},
	{"txn_p50_us", "us", "lower", 0.25},
	{"txn_p99_us", "us", "lower", 0.25},
	{"mem_per_conn_bytes", "B", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer metrics of the traced run, in ladder
// order. The ones marked count are exact; the untraced run prints those
// it can see too.
var perLayer = []metricDef{
	{Name: "wire.extract_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "wire.parse_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "wire.build_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "wire.parse_allocs_per_frame", Unit: "count", Better: "lower"},
	{Name: "wire.build_allocs_per_frame", Unit: "count", Better: "lower"},
	{Name: "shard.steer_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "discipline.lookup_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "discipline.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "discipline.remove_ns", Unit: "ns", Better: "lower"},
	{Name: "discipline.examined_per_frame", Unit: "count", Better: "lower"},
	{Name: "discipline.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "discipline.shadow_match", Unit: "count", Better: "higher"},
	{Name: "engine.deliver_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "engine.allocs_per_frame", Unit: "count", Better: "lower"},
	{Name: "engine.self_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "engine.inbound_frames_per_txn", Unit: "count", Better: "lower"},
	{Name: "engine.egress_frames_per_txn", Unit: "count", Better: "lower"},
	{Name: "engine.retransmits", Unit: "count", Better: "lower"},
	{Name: "engine.tick_ns", Unit: "ns", Better: "lower"},
	{Name: "shard.deliver_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "shard.allocs_per_frame", Unit: "count", Better: "lower"},
	{Name: "shard.self_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "shard.inbox_full_events", Unit: "count", Better: "lower"},
	{Name: "shard.shed_frames", Unit: "count", Better: "lower"},
	{Name: "shard.steer_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "shard.ledger_balanced", Unit: "count", Better: "higher"},
	{Name: "server.protocol_ns_per_txn", Unit: "ns", Better: "lower"},
	{Name: "server.self_us_per_txn", Unit: "us", Better: "lower"},
	{Name: "server.txn_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.txn_p999_us", Unit: "us", Better: "lower"},
	{Name: "server.accept_us_per_conn", Unit: "us", Better: "lower"},
	{Name: "server.goroutines_per_conn", Unit: "count", Better: "lower"},
	{Name: "server.frames_synth_per_txn", Unit: "count", Better: "lower"},
	{Name: "server.shed_conns", Unit: "count", Better: "lower"},
	{Name: "server.ledger_balanced", Unit: "count", Better: "higher"},
	{Name: "process.cpu_us_per_txn", Unit: "us", Better: "lower"},
	{Name: "process.allocs_per_txn", Unit: "count", Better: "lower"},
	{Name: "process.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "process.retained_bytes_per_txn", Unit: "B", Better: "lower"},
	{Name: "harness.client_ns_per_txn", Unit: "ns", Better: "lower"},
	{Name: "harness.allocs_per_txn", Unit: "count", Better: "lower"},
	{Name: "harness.loopback_floor_us", Unit: "us", Better: "lower"},
	{Name: "harness.calib_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "harness.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "harness.span_ns", Unit: "ns", Better: "lower"},
	{Name: "harness.txn_samples", Unit: "count", Better: "higher"},
	{Name: "harness.txn_tail_pct", Unit: "%", Better: "higher"},
	{Name: "harness.txn_tail_us", Unit: "us", Better: "lower"},
}

// counts are the exact metrics an untraced round can see from outside.
// With equal seeds and equal transaction counts they all repeat exactly
// (bench_test.go). Rounds are timed, though, so between two runs the ones
// that average over the window's transactions agree only closely: tol is
// the difference -compare lets pass, as a share of the value or, for a
// value below 1, of 1.
var counts = []struct {
	name string
	tol  float64
}{
	{"discipline.examined_per_frame", 0.01},
	{"discipline.cache_hit_ratio", 0.01},
	{"shard.steer_imbalance", 0.01},
	{"engine.inbound_frames_per_txn", 0},
	{"engine.egress_frames_per_txn", 0},
	{"engine.retransmits", 0},
	{"shard.inbox_full_events", 0},
	{"shard.shed_frames", 0},
	{"shard.ledger_balanced", 0},
	{"server.shed_conns", 0},
	{"server.ledger_balanced", 0},
}

func unitOf(name string) string {
	for _, d := range perLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// value is one reported number. Min and Max are the extreme rounds of an
// untraced run: its spread.
type value struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Min   *float64 `json:"min,omitempty"`
	Max   *float64 `json:"max,omitempty"`
}

type workloadResult struct {
	Name      string           `json:"name"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Error     string           `json:"error,omitempty"`
	EndToEnd  map[string]value `json:"end_to_end,omitempty"`
	Counts    map[string]value `json:"counts,omitempty"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
	// Samples is the latency sample count of the median round; TailPct is
	// the highest percentile with ten samples beyond it and TailUs the
	// latency there. CalibNsPerOp has one entry per round.
	Samples      int       `json:"txn_samples,omitempty"`
	TailPct      float64   `json:"txn_tail_pct,omitempty"`
	TailUs       float64   `json:"txn_tail_us,omitempty"`
	CalibNsPerOp []float64 `json:"calib_ns_per_op,omitempty"`
	// Slices are the per-slice figures of every round, kept so that a
	// run's noise can be looked at after the fact.
	Slices []sliceStats `json:"slices,omitempty"`
}

// report is the result file: what -out writes and -compare reads.
type report struct {
	Seed        uint64           `json:"seed"`
	Seconds     float64          `json:"seconds"`
	Trace       int              `json:"trace"`
	NumCPU      int              `json:"num_cpu"`
	GOMAXPROCS  int              `json:"gomaxprocs"`
	LiveWorkers int              `json:"live_workers"`
	GoVersion   string           `json:"go_version"`
	Workloads   []workloadResult `json:"workloads"`
}

// untracedResult folds a workload's rounds into medians with their
// spread. Any failed round fails the workload.
func untracedResult(sp spec, rs []round) workloadResult {
	w := workloadResult{Name: sp.name, Correct: true, EndToEnd: map[string]value{}, Counts: map[string]value{}}
	var good []round
	for _, r := range rs {
		w.Attempted += r.attempted
		w.Failed += r.failed
		w.CalibNsPerOp = append(w.CalibNsPerOp, r.calib)
		w.Slices = append(w.Slices, r.slices)
		if r.err != nil {
			if w.Error == "" {
				w.Error = r.err.Error()
			}
			continue
		}
		good = append(good, r)
	}
	w.Correct = len(good) == len(rs) && w.Failed == 0
	w.Attempted = max(w.Attempted, 1)
	if len(good) == 0 {
		return w
	}
	column := func(get func(round) (float64, bool)) (xs []float64) {
		for _, r := range good {
			if x, ok := get(r); ok {
				xs = append(xs, x)
			}
		}
		return xs
	}
	for _, d := range endToEnd {
		xs := column(func(r round) (float64, bool) { return r.e2e[d.Name], true })
		lo, hi := minMax(xs)
		w.EndToEnd[d.Name] = value{Value: median(xs), Unit: d.Unit, Min: &lo, Max: &hi}
	}
	for _, c := range counts {
		xs := column(func(r round) (float64, bool) { x, ok := r.counts[c.name]; return x, ok })
		if len(xs) > 0 {
			w.Counts[c.name] = value{Value: median(xs), Unit: unitOf(c.name)}
		}
	}
	mid := good[len(good)/2]
	w.Samples, w.TailPct, w.TailUs = mid.samples, mid.tailPct, mid.tailUs
	return w
}

func tracedResult(sp spec, t traced) workloadResult {
	w := workloadResult{Name: sp.name, Correct: t.err == nil && t.failed == 0, Attempted: max(t.attempted, 1), Failed: t.failed}
	if t.err != nil {
		w.Error = t.err.Error()
		return w
	}
	w.PerLayer = map[string]value{}
	for _, d := range perLayer {
		w.PerLayer[d.Name] = value{Value: t.layers[d.Name], Unit: d.Unit}
	}
	return w
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// contractLine is the one JSON object a run prints last for a workload:
// the end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one. A failed run has no metrics to give.
func (w workloadResult) contractLine() map[string]any {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	for _, d := range endToEnd {
		if v, ok := w.EndToEnd[d.Name]; ok {
			metrics[d.Name] = metric{v.Value, v.Unit}
		}
	}
	for _, d := range perLayer {
		if v, ok := w.PerLayer[d.Name]; ok {
			metrics[d.Name] = metric{v.Value, v.Unit}
		}
	}
	return map[string]any{"correct": w.Correct, "attempted": w.Attempted, "failed": w.Failed, "metrics": metrics}
}

// print writes every metric by name and unit, one per line.
func (rep report) print(out io.Writer) {
	fmt.Fprintf(out, "seed %d, %g s per workload, %d CPU(s), GOMAXPROCS %d, %d live worker(s), %s\n",
		rep.Seed, rep.Seconds, rep.NumCPU, rep.GOMAXPROCS, rep.LiveWorkers, rep.GoVersion)
	for _, w := range rep.Workloads {
		verdict := "correct"
		if !w.Correct {
			verdict = "FAILED: " + w.Error
		}
		fmt.Fprintf(out, "\n%s: %d attempted, %d failed, %s\n", w.Name, w.Attempted, w.Failed, verdict)
		for _, d := range endToEnd {
			if v, ok := w.EndToEnd[d.Name]; ok {
				fmt.Fprintf(out, "  %-34s %14.4f %-5s spread [%.4f, %.4f]\n", d.Name, v.Value, v.Unit, *v.Min, *v.Max)
			}
		}
		if w.Samples > 0 {
			fmt.Fprintf(out, "  %-34s %14d %-5s p%.4f = %.4f us\n", "txn_samples", w.Samples, "count", w.TailPct, w.TailUs)
			fmt.Fprintf(out, "  %-34s %v\n", "harness.calib_ns_per_op per round", w.CalibNsPerOp)
		}
		for _, c := range counts {
			if v, ok := w.Counts[c.name]; ok {
				fmt.Fprintf(out, "  %-34s %14.4f %s\n", c.name, v.Value, v.Unit)
			}
		}
		for _, d := range perLayer {
			if v, ok := w.PerLayer[d.Name]; ok {
				fmt.Fprintf(out, "  %-34s %14.4f %s\n", d.Name, v.Value, v.Unit)
			}
		}
	}
}

func (rep report) write(path string) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (report, error) {
	var rep report
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// compareFiles holds a new untraced result against an old one, metric by
// metric and workload by workload, by each metric's direction and bound.
// A metric whose rounds spread wider than its bound on either side is
// unresolved, not unchanged, unless the two sides' rounds do not overlap
// at all. Counts must agree when the seeds are equal. It returns the
// exit code: 1 if anything is worse or a count differs.
func compareFiles(oldPath, newPath string) int {
	oldRep, err := readReport(oldPath)
	if err != nil {
		fatal(err)
	}
	newRep, err := readReport(newPath)
	if err != nil {
		fatal(err)
	}
	code := 0
	fmt.Printf("%-14s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "old", "new", "change", "bound", "verdict")
	for _, ow := range oldRep.Workloads {
		var nw *workloadResult
		for i := range newRep.Workloads {
			if newRep.Workloads[i].Name == ow.Name {
				nw = &newRep.Workloads[i]
			}
		}
		if nw == nil {
			continue
		}
		if !ow.Correct || !nw.Correct {
			fmt.Printf("%-14s a run failed its checks: nothing to compare\n", ow.Name)
			code = 1
			continue
		}
		for _, d := range endToEnd {
			o, n := ow.EndToEnd[d.Name], nw.EndToEnd[d.Name]
			if o.Min == nil || n.Min == nil || o.Value == 0 {
				continue
			}
			worse := (n.Value - o.Value) / o.Value // the share by which the new median is worse
			oBest, oWorst, nBest, nWorst := *o.Min, *o.Max, *n.Min, *n.Max
			if d.Better == "higher" {
				worse = -worse
				oBest, oWorst, nBest, nWorst = -*o.Max, -*o.Min, -*n.Max, -*n.Min
			}
			spread := max((*o.Max-*o.Min)/o.Value, (*n.Max-*n.Min)/n.Value)
			verdict := "within"
			switch {
			case spread > d.Bound && nBest <= oWorst && oBest <= nWorst:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "worse"
				code = 1
			}
			fmt.Printf("%-14s %-20s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n",
				ow.Name, d.Name, o.Value, n.Value, 100*(n.Value-o.Value)/o.Value, 100*d.Bound, verdict)
		}
		if oldRep.Seed != newRep.Seed {
			continue
		}
		for _, c := range counts {
			o, ok := ow.Counts[c.name]
			n, ok2 := nw.Counts[c.name]
			if ok && ok2 && math.Abs(o.Value-n.Value) > c.tol*max(math.Abs(o.Value), 1) {
				fmt.Printf("%-14s %-34s %.6f != %.6f  count differs\n", ow.Name, c.name, o.Value, n.Value)
				code = 1
			}
		}
	}
	return code
}
