// Command benchpairs is the paired comparison the repo's benchmark asks of
// a performance claim (bench/README.md §Noise): the parent commit's
// checkout and the change's, each built once by its own bench/run.sh, run
// alternately workload by workload, the side that goes first alternating
// too. For every end-to-end metric of BENCHMARK.json × workload it prints
// the two medians, the distance between the parent's quartiles, and in how
// many pairs the change read better; then every run's value, in pair
// order, for the record. It edits and reads nothing under bench/ but the
// result files run.sh -out writes.
//
//	make bench-pairs PARENT=<rev> N=10
//	benchpairs -parent .bench_build/parent -change . -n 10 [-workloads live-oltp] [-seed 1] [-seconds 15] [-trace 0]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"tcpdemux/internal/stats"
)

// metric is one BENCHMARK.json end_to_end or per_layer entry.
type metric struct {
	Name   string `json:"name"`
	Better string `json:"better"`
}

// contract is what benchpairs reads of BENCHMARK.json.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

// readings are one run's metrics by name.
type readings map[string]struct {
	Value float64 `json:"value"`
}

// result is what benchpairs reads of a run.sh -out file: the untraced
// run's end-to-end values, or the traced run's per-layer ones.
type result struct {
	Workloads []struct {
		Name     string   `json:"name"`
		Correct  bool     `json:"correct"`
		EndToEnd readings `json:"end_to_end"`
		PerLayer readings `json:"per_layer"`
	} `json:"workloads"`
}

func main() {
	var (
		parent    = flag.String("parent", "", "checkout of the parent commit")
		change    = flag.String("change", ".", "checkout of the change")
		n         = flag.Int("n", 10, "pairs per workload")
		workloads = flag.String("workloads", "", "comma-separated workloads (default: all of BENCHMARK.json)")
		seed      = flag.Uint64("seed", 1, "benchmark seed")
		seconds   = flag.Float64("seconds", 15, "measured seconds per run")
		trace     = flag.Int("trace", 0, "1: traced runs, compared on the per-layer metrics")
	)
	flag.Parse()
	if err := run(*parent, *change, *n, *workloads, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

func run(parent, change string, n int, workloads string, seed uint64, seconds float64, trace int) error {
	if parent == "" || n <= 0 {
		return fmt.Errorf("-parent and a positive -n are required")
	}
	var c contract
	raw, err := os.ReadFile(filepath.Join(change, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(raw, &c)
	}
	if err != nil {
		return err
	}
	names := strings.Split(workloads, ",")
	if workloads == "" {
		names = names[:0]
		for _, w := range c.Workloads {
			names = append(names, w.Name)
		}
	}
	metrics := c.EndToEnd
	if trace != 0 {
		metrics = c.PerLayer
	}
	sides := [2]string{parent, change}
	// values[workload][metric][side] in pair order.
	values := map[string]map[string]*[2][]float64{}
	for pair := 0; pair < n; pair++ {
		for _, w := range names {
			for k := 0; k < 2; k++ {
				side := (pair + k) % 2 // who goes first alternates
				got, err := measure(sides[side], w, seed, seconds, trace)
				if err != nil {
					return fmt.Errorf("%s, pair %d, %s: %w", w, pair+1, sides[side], err)
				}
				if values[w] == nil {
					values[w] = map[string]*[2][]float64{}
				}
				for _, m := range metrics {
					if values[w][m.Name] == nil {
						values[w][m.Name] = &[2][]float64{}
					}
					values[w][m.Name][side] = append(values[w][m.Name][side], got[m.Name].Value)
				}
			}
			fmt.Fprintf(os.Stderr, "pair %d/%d %s done\n", pair+1, n, w)
		}
	}

	fmt.Printf("%-13s %-32s %14s %14s %7s %12s %6s\n", "workload", "metric", "parent median", "change median", "ratio", "parent q3-q1", "wins")
	for _, w := range names {
		for _, m := range metrics {
			v := values[w][m.Name]
			wins := 0
			for i := range v[0] {
				if (m.Better == "higher") == (v[1][i] > v[0][i]) && v[1][i] != v[0][i] {
					wins++
				}
			}
			// Percentile sorts what it is given; the pair order is printed below.
			ps, cs := append([]float64(nil), v[0]...), append([]float64(nil), v[1]...)
			pm, cm := stats.Percentile(ps, 50), stats.Percentile(cs, 50)
			fmt.Printf("%-13s %-32s %14.6g %14.6g %7.3f %12.6g %3d/%d\n", w, m.Name, pm, cm, cm/pm,
				stats.Percentile(ps, 75)-stats.Percentile(ps, 25), wins, len(v[0]))
		}
	}
	fmt.Println("\nevery run, in pair order:")
	for _, w := range names {
		for _, m := range metrics {
			v := values[w][m.Name]
			fmt.Printf("%s %s parent %s change %s\n", w, m.Name, join(v[0]), join(v[1]))
		}
	}
	return nil
}

// measure runs one workload once in a checkout, through its own
// bench/run.sh, and returns the metrics of the result file.
func measure(dir, workload string, seed uint64, seconds float64, trace int) (readings, error) {
	out, err := filepath.Abs(filepath.Join(dir, ".bench_build", "pair.json"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("bash", "bench/run.sh", "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace), "-out", out)
	cmd.Dir = dir
	if msg, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("%w\n%s", err, msg)
	}
	var r result
	raw, err := os.ReadFile(out)
	if err == nil {
		err = json.Unmarshal(raw, &r)
	}
	if err != nil {
		return nil, err
	}
	if len(r.Workloads) != 1 || !r.Workloads[0].Correct {
		return nil, fmt.Errorf("the run failed its own checks (%s)", out)
	}
	if trace != 0 {
		return r.Workloads[0].PerLayer, nil
	}
	return r.Workloads[0].EndToEnd, nil
}

func join(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.6g", x)
	}
	return strings.Join(parts, " ")
}
