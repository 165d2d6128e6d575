// Command benchjson writes the repository's BENCH_*.json reports. Four
// workloads share the harness:
//
//   - parallel (BENCH_parallel.json): the two locking disciplines of
//     [Dov90] — a global lock (over the BSD list and over the Sequent
//     hash) and Sequent's per-chain locks — one shared table, many
//     workers, one key per lookup.
//   - cache (BENCH_cache.json): the internal/cachesim model of the
//     chained Sequent layout against the flat probe window. It is exact
//     for a given seed, measures nothing, and is a golden.
//   - shard (BENCH_shard.json): the multi-queue engine — the same
//     TPC/A population RSS-steered across N private Sequent tables,
//     sweeping the shard count (1, 2, 4, max). With the chain count
//     held fixed, each shard's table holds ~1/N of the PCBs, so the
//     sweep exposes the paper's C(N) partitioning effect directly.
//   - failover (BENCH_failover.json): shard failure domains under
//     virtual time — crash and stall one shard of four mid-exchange and
//     measure watchdog detection latency, live-drain recovery, and
//     windowed goodput in deterministic virtual-time ticks (see
//     failover.go; nsPerOp is ticks, not wall nanoseconds).
//
// Methodology: the parallel and shard workloads measure every
// configuration -rounds times with the rounds interleaved round-robin
// across configurations, and the summary takes each configuration's best
// round. Interleaving plus best-of-N makes the comparison robust against
// the slow drift and interference spikes of shared machines, which a
// single long pass per configuration would fold into whichever algorithm
// happened to run last.
//
// The parallel and shard reports are host-dependent: their ns/op and
// rates, and the parallel workload's examined and hit-rate columns (it
// churns a shared table under concurrent workers), move with the host
// and the scheduler. They are reports, and nothing compares them. What
// in them is exact — the shard sweep's steering split and examined
// column — is held at tolerance 0 by TestExactColumnsAtCommittedPoints.
// The cache and failover reports are exact throughout and are goldens
// (testdata/golden/MANIFEST, `make golden`).
//
// Usage:
//
//	benchjson [-workload parallel|cache|shard|failover] [-out FILE]
//	          [-rounds 5] [-gomaxprocs 4] [-workers 4*gomaxprocs]
//	          [-ops 200000] [-n 1000] [-read 0.99]
//	          [-chains 19] [-seed 7]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"tcpdemux/internal/core"
	"tcpdemux/internal/parallel"
	"tcpdemux/internal/telemetry"
	"tcpdemux/internal/tpca"
)

// options collects the run parameters; a struct (rather than bare flag
// globals) so the test harness can drive tiny runs.
type options struct {
	Out        string
	Workload   string
	Rounds     int
	GoMaxProcs int
	Workers    int
	Ops        int
	Users      int
	TxnsPer    int
	Read       float64
	Chains     int
	Seed       uint64
	ChurnKeys  int
}

func defaults() options {
	return options{
		Out:        "BENCH_parallel.json",
		Workload:   "parallel",
		Rounds:     5,
		GoMaxProcs: 4,
		Workers:    0, // 0 -> 4 * GoMaxProcs
		Ops:        200_000,
		Users:      1000,
		TxnsPer:    4,
		Read:       0.99,
		Chains:     19,
		Seed:       7,
		ChurnKeys:  32,
	}
}

// round is one measured pass of one configuration.
type round struct {
	NsPerOp       float64 `json:"nsPerOp"`
	LookupsPerSec float64 `json:"lookupsPerSec"`
	MeanExamined  float64 `json:"meanExamined"`
	CacheHitRate  float64 `json:"cacheHitRate"`
	// Examined-per-packet percentiles from the round's telemetry
	// histogram (log2-bucket estimates).
	ExaminedP50 float64 `json:"examinedP50"`
	ExaminedP90 float64 `json:"examinedP90"`
	ExaminedP99 float64 `json:"examinedP99"`
}

// result is one configuration's rounds plus its best round. Unit names
// what nsPerOp counts when that is not wall nanoseconds: the failover
// workload's results are virtual-time ticks ("vtick").
type result struct {
	Discipline string  `json:"discipline"`
	Mode       string  `json:"mode"`
	Unit       string  `json:"unit,omitempty"`
	Rounds     []round `json:"rounds"`
	Best       round   `json:"best"`
}

// report is the full JSON document.
type report struct {
	Benchmark  string             `json:"benchmark"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	NumCPU     int                `json:"numCPU"`
	GoMaxProcs int                `json:"gomaxprocs"`
	Config     map[string]any     `json:"config"`
	Results    []result           `json:"results"`
	Summary    summary            `json:"summary"`
	BestRate   map[string]float64 `json:"bestLookupsPerSec"`
	// Telemetry is the registry snapshot accumulated across every round,
	// one examined histogram per discipline/mode pair.
	Telemetry telemetry.Snapshot `json:"telemetry"`
}

// summary holds the [Dov90] ratio: the per-chain-lock table's best
// lookup rate over the global lock's, both on the Sequent hash.
type summary struct {
	ShardedOverLocked float64 `json:"shardedOverLocked"`
}

func main() {
	opt := defaults()
	opt.Out = "" // empty -> per-workload default, resolved after Parse
	flag.StringVar(&opt.Out, "out", opt.Out, "output JSON path (- for stdout, default per workload)")
	flag.IntVar(&opt.Rounds, "rounds", opt.Rounds, "interleaved measurement rounds per configuration")
	flag.IntVar(&opt.GoMaxProcs, "gomaxprocs", opt.GoMaxProcs, "GOMAXPROCS for the measurement (acceptance point is >= 4)")
	flag.IntVar(&opt.Workers, "workers", opt.Workers, "concurrent workers (0 = 4 x gomaxprocs)")
	flag.IntVar(&opt.Ops, "ops", opt.Ops, "operations per worker per round")
	flag.IntVar(&opt.Users, "n", opt.Users, "TPC/A users (connection population)")
	flag.Float64Var(&opt.Read, "read", opt.Read, "lookup fraction of the operation mix")
	flag.IntVar(&opt.Chains, "chains", opt.Chains, "hash chains")
	flag.Uint64Var(&opt.Seed, "seed", opt.Seed, "workload seed")
	flag.StringVar(&opt.Workload, "workload", opt.Workload, "benchmark workload: parallel, cache, shard, or failover")
	flag.Parse()

	if opt.Out == "" {
		opt.Out = map[string]string{
			"parallel": "BENCH_parallel.json",
			"cache":    "BENCH_cache.json",
			"shard":    "BENCH_shard.json",
			"failover": "BENCH_failover.json",
		}[opt.Workload]
	}

	var rep any
	var err error
	var note string
	switch opt.Workload {
	case "parallel":
		var pr *report
		pr, err = run(opt)
		if pr != nil {
			note = fmt.Sprintf("sharded/locked %.2fx", pr.Summary.ShardedOverLocked)
		}
		rep = pr
	case "cache":
		rep, err = runCache(opt)
		note = "cachesim model, exact"
	case "shard":
		var sr *shardReport
		sr, err = runShard(opt)
		if sr != nil {
			note = fmt.Sprintf("4 shards %.2fx over single queue (examined %.1f -> %.1f)",
				sr.Summary.QuadOverSingle, sr.Summary.ExaminedSingle, sr.Summary.ExaminedQuad)
		}
		rep = sr
	case "failover":
		var fr *failoverReport
		fr, err = runFailover(opt)
		if fr != nil && len(fr.Scenarios) > 0 {
			sc := fr.Scenarios[0]
			note = fmt.Sprintf("%s detected in %.0f ticks, recovered in %.0f",
				sc.Name, sc.DetectTicks, sc.RecoverTicks)
		}
		rep = fr
	default:
		err = fmt.Errorf("unknown workload %q (have parallel, cache, shard, failover)", opt.Workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if opt.Out == "-" {
		os.Stdout.Write(buf)
	} else {
		if err := os.WriteFile(opt.Out, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%s)\n", opt.Out, note)
	}
}

// hostInfo captures the host facts at measurement time — inside the
// GOMAXPROCS window the workers actually ran under, not whatever the
// process was restored to afterwards.
type hostInfo struct {
	NumCPU     int
	GoMaxProcs int
}

// run measures every registered locking discipline (parallel.Disciplines)
// with the rounds interleaved — round 1 of every discipline, then round
// 2, ... so machine drift lands on all of them alike — and assembles the
// report.
func run(opt options) (*report, error) {
	if opt.Workers <= 0 {
		opt.Workers = 4 * opt.GoMaxProcs
	}
	prev := runtime.GOMAXPROCS(opt.GoMaxProcs)
	defer runtime.GOMAXPROCS(prev)
	host := hostInfo{NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0)}

	stream, err := parallel.TPCAStream(opt.Users, opt.TxnsPer, opt.Seed)
	if err != nil {
		return nil, err
	}
	churn := make([][]core.Key, opt.Workers)
	for w := range churn {
		base := opt.Users + 100 + w*opt.ChurnKeys
		for i := 0; i < opt.ChurnKeys; i++ {
			churn[w] = append(churn[w], tpca.UserKey(base+i))
		}
	}

	names := parallel.Disciplines()
	results := make([]result, len(names))
	metrics := make([]*telemetry.DemuxMetrics, len(names))
	reg := telemetry.NewRegistry()
	for i, name := range names {
		results[i] = result{Discipline: name, Mode: "perpacket"}
		metrics[i] = telemetry.NewDemuxMetrics(reg, name+"/perpacket")
	}
	for r := 0; r < opt.Rounds; r++ {
		for i, name := range names {
			inner, err := parallel.New(name, core.Config{Chains: opt.Chains})
			if err != nil {
				return nil, err
			}
			d := telemetry.InstrumentConcurrent(inner, metrics[i], nil, nil)
			for u := 0; u < opt.Users; u++ {
				if err := d.Insert(core.NewPCB(tpca.UserKey(u))); err != nil {
					return nil, err
				}
			}
			before := metrics[i].ExaminedSnapshot()
			res, err := parallel.MeasureThroughput(d, parallel.ThroughputConfig{
				Workers: opt.Workers, OpsPerWorker: opt.Ops, Stream: stream,
				ReadFraction: opt.Read, ChurnKeys: churn,
				Seed: opt.Seed + uint64(r),
			})
			if err != nil {
				return nil, err
			}
			h := histDiff(metrics[i].ExaminedSnapshot(), before)
			rd := round{
				NsPerOp:       res.NsPerOp,
				LookupsPerSec: float64(res.Stats.Lookups) / res.Elapsed.Seconds(),
				MeanExamined:  res.Stats.MeanExamined(),
				CacheHitRate:  res.Stats.HitRate(),
				ExaminedP50:   h.Quantile(0.50),
				ExaminedP90:   h.Quantile(0.90),
				ExaminedP99:   h.Quantile(0.99),
			}
			results[i].Rounds = append(results[i].Rounds, rd)
			if rd.LookupsPerSec > results[i].Best.LookupsPerSec {
				results[i].Best = rd
			}
		}
	}

	best := make(map[string]float64)
	for _, r := range results {
		best[r.Discipline] = r.Best.LookupsPerSec
	}
	var sum summary
	if best["locked-sequent"] > 0 {
		sum.ShardedOverLocked = best["sharded-sequent"] / best["locked-sequent"]
	}

	return &report{
		Benchmark:  "parallel TPC/A read-heavy mix (parallel.MeasureThroughput)",
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     host.NumCPU,
		GoMaxProcs: host.GoMaxProcs,
		Config: map[string]any{
			"users": opt.Users, "txnsPerUser": opt.TxnsPer,
			"readFraction": opt.Read, "workers": opt.Workers,
			"opsPerWorker": opt.Ops, "chains": opt.Chains,
			"rounds": opt.Rounds, "seed": opt.Seed,
			"churnKeysPerWorker": opt.ChurnKeys,
		},
		Results:   results,
		Summary:   sum,
		BestRate:  best,
		Telemetry: reg.Snapshot(),
	}, nil
}

// histDiff subtracts an earlier snapshot of the same histogram, giving
// the per-round view of a histogram that accumulates across rounds. Max
// is carried from the later snapshot (it cannot be un-accumulated).
func histDiff(after, before telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	d := after
	d.Count -= before.Count
	d.Sum -= before.Sum
	d.Bucket = make([]uint64, len(after.Bucket))
	for i := range d.Bucket {
		d.Bucket[i] = after.Bucket[i] - before.Bucket[i]
	}
	return d
}
