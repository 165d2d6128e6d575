// Command bench is the repository's benchmark: byte-verified TPC/A
// transactions through the live socket frontend and through the
// in-process frame path, with a per-layer ladder from a separate traced
// run. README.md describes the workloads, the metrics and the trace;
// ../BENCHMARK.json is the contract it is run under.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// rounds is how many times an untraced run rebuilds and measures each
// workload; every reported value is the median round.
const rounds = 5

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, a comma-separated list, or all")
		seed     = flag.Uint64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 15, "measured seconds per workload")
		trace    = flag.Int("trace", 0, "1: the traced run, which reports the per-layer metrics")
		out      = flag.String("out", "", "result file (default <bench dir>/out/latest.json)")
		compare  = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	specs, err := selectWorkloads(*workload)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fatal(fmt.Errorf("-seconds must be positive and -trace 0 or 1"))
	}
	outDir := "out"
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		outDir = filepath.Join("bench", "out") // run from the repository root
	}
	if *out == "" {
		*out = filepath.Join(outDir, "latest.json")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}

	rep := report{
		Seed: *seed, Seconds: *seconds, Trace: *trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), LiveWorkers: liveWorkers(),
		GoVersion: runtime.Version(),
	}
	if *trace == 1 {
		for _, sp := range specs {
			rep.Workloads = append(rep.Workloads, tracedResult(sp, runTraced(sp, *seed, *seconds, outDir)))
		}
	} else {
		// Rounds are interleaved across the workloads, so that a slow
		// minute of the host falls on all of them alike.
		all := make([][]round, len(specs))
		dur := time.Duration(*seconds / rounds * float64(time.Second))
		for k := 0; k < rounds; k++ {
			for i, sp := range specs {
				all[i] = append(all[i], runRound(sp, *seed+uint64(k)*1_000_003, dur, 0))
			}
		}
		for i, sp := range specs {
			rep.Workloads = append(rep.Workloads, untracedResult(sp, all[i]))
		}
	}

	rep.print(os.Stderr)
	if err := rep.write(*out); err != nil {
		fatal(err)
	}
	ok := true
	for _, w := range rep.Workloads {
		obj := w.contractLine()
		if len(rep.Workloads) > 1 {
			obj["workload"] = w.Name
		}
		line, err := json.Marshal(obj)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		ok = ok && w.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func selectWorkloads(arg string) ([]spec, error) {
	if arg == "all" {
		return workloads, nil
	}
	var specs []spec
	for _, name := range strings.Split(arg, ",") {
		sp, ok := workloadByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		specs = append(specs, sp)
	}
	return specs, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
