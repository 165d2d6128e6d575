// Command benchjson runs the concurrent demultiplexers head-to-head on
// the read-heavy TPC/A mix and writes the measured rates as JSON. Four
// workloads share the harness:
//
//   - parallel (BENCH_parallel.json): the locking disciplines — global
//     lock, per-chain locks, and the lock-free-read RCU table — per
//     packet and in batched trains.
//   - cache (BENCH_cache.json): the chained baselines against the
//     cache-conscious open-addressing table (flat-hopscotch), per packet
//     and batched, sweeping the batch path's prefetch pipeline depth k,
//     with internal/cachesim stall estimates embedded beside the
//     measured numbers.
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
// Methodology: every configuration is measured -rounds times with the
// rounds interleaved round-robin across configurations, and the summary
// takes each configuration's best round. Interleaving plus best-of-N
// makes the comparison robust against the slow drift and interference
// spikes of shared machines, which a single long pass per configuration
// would fold into whichever algorithm happened to run last.
//
// The parallel, cache and shard reports are host-dependent: their ns/op
// and rates, and the examined and hit-rate columns of the two workloads
// that churn a shared table under concurrent workers, move with the host
// and the scheduler. They are reports, and nothing compares them. What
// in them is exact — the shard sweep's steering split and examined
// column, the cache workload's model block — is held at tolerance 0 by
// TestExactColumnsAtCommittedPoints. The failover report runs in virtual
// time and is itself a golden (testdata/golden/MANIFEST, `make golden`).
//
// Usage:
//
//	benchjson [-workload parallel|cache|shard|failover] [-out FILE]
//	          [-rounds 5] [-gomaxprocs 4] [-workers 4*gomaxprocs]
//	          [-ops 200000] [-users 1000] [-read 0.99] [-batch 64]
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
	Batch      int
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
		Batch:      64,
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

// summary holds the acceptance ratios: the RCU table's best rate against
// the global-lock and per-chain-lock baselines' best rates.
type summary struct {
	RcuOverLocked      float64 `json:"rcuOverLocked"`
	RcuOverSharded     float64 `json:"rcuOverSharded"`
	MeetsRcu2xLocked   bool    `json:"meetsRcu2xLocked"`
	MeetsRcu12xSharded bool    `json:"meetsRcu1_2xSharded"`
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
	flag.IntVar(&opt.Batch, "batch", opt.Batch, "train length for the batched mode")
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
			note = fmt.Sprintf("rcu/locked %.2fx, rcu/sharded %.2fx",
				pr.Summary.RcuOverLocked, pr.Summary.RcuOverSharded)
		}
		rep = pr
	case "cache":
		var cr *cacheReport
		cr, err = runCache(opt)
		if cr != nil {
			note = fmt.Sprintf("flat batch %.2fx over rcu per-packet (ns/op)",
				cr.Summary.FlatBatchOverRcuPerPacket)
		}
		rep = cr
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

// disciplines are the head-to-head variants, global lock to lock-free.
var disciplinesUnder = []string{"locked-sequent", "sharded-sequent", "rcu-sequent"}

// benchConfig names one measured configuration: a concurrent discipline
// in one lookup mode. depth is the prefetch pipeline depth for the flat
// tables' batch path; -1 leaves the table's default untouched (chained
// disciplines ignore it entirely).
type benchConfig struct {
	discipline string
	mode       string
	batch      int
	depth      int
}

// hostInfo captures the host facts at measurement time — inside the
// GOMAXPROCS window the workers actually ran under, not whatever the
// process was restored to afterwards.
type hostInfo struct {
	NumCPU     int
	GoMaxProcs int
}

// measureConfigs runs the interleaved best-of-rounds measurement over
// the given configurations: round 1 of every configuration, then round
// 2, ... so machine drift lands on all configurations alike. It returns
// one result per configuration plus the accumulated telemetry registry.
func measureConfigs(opt options, configs []benchConfig) ([]result, *telemetry.Registry, hostInfo, error) {
	if opt.Workers <= 0 {
		opt.Workers = 4 * opt.GoMaxProcs
	}
	prev := runtime.GOMAXPROCS(opt.GoMaxProcs)
	defer runtime.GOMAXPROCS(prev)
	host := hostInfo{NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0)}

	stream, err := parallel.TPCAStream(opt.Users, opt.TxnsPer, opt.Seed)
	if err != nil {
		return nil, nil, host, err
	}

	churn := make([][]core.Key, opt.Workers)
	for w := range churn {
		base := opt.Users + 100 + w*opt.ChurnKeys
		for i := 0; i < opt.ChurnKeys; i++ {
			churn[w] = append(churn[w], tpca.UserKey(base+i))
		}
	}

	results := make([]result, len(configs))
	metrics := make([]*telemetry.DemuxMetrics, len(configs))
	reg := telemetry.NewRegistry()
	for i, c := range configs {
		results[i] = result{Discipline: c.discipline, Mode: c.mode}
		metrics[i] = telemetry.NewDemuxMetrics(reg,
			fmt.Sprintf("%s/%s", c.discipline, c.mode))
	}
	for r := 0; r < opt.Rounds; r++ {
		for i, c := range configs {
			inner, err := parallel.New(c.discipline, core.Config{Chains: opt.Chains})
			if err != nil {
				return nil, nil, host, err
			}
			if c.depth >= 0 {
				if s, ok := inner.(interface{ SetPrefetchDepth(int) }); ok {
					s.SetPrefetchDepth(c.depth)
				}
			}
			d := telemetry.InstrumentConcurrent(inner, metrics[i], nil, nil)
			for u := 0; u < opt.Users; u++ {
				if err := d.Insert(core.NewPCB(tpca.UserKey(u))); err != nil {
					return nil, nil, host, err
				}
			}
			before := metrics[i].ExaminedSnapshot()
			res, err := parallel.MeasureThroughput(d, parallel.ThroughputConfig{
				Workers: opt.Workers, OpsPerWorker: opt.Ops, Stream: stream,
				ReadFraction: opt.Read, ChurnKeys: churn, Batch: c.batch,
				Seed: opt.Seed + uint64(r),
			})
			if err != nil {
				return nil, nil, host, err
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
	return results, reg, host, nil
}

// run executes the interleaved measurement and assembles the report.
func run(opt options) (*report, error) {
	if opt.Workers <= 0 {
		opt.Workers = 4 * opt.GoMaxProcs
	}
	var configs []benchConfig
	for _, name := range disciplinesUnder {
		configs = append(configs, benchConfig{name, "perpacket", 0, -1})
		if opt.Batch > 1 {
			configs = append(configs, benchConfig{name, fmt.Sprintf("batch%d", opt.Batch), opt.Batch, -1})
		}
	}
	results, reg, host, err := measureConfigs(opt, configs)
	if err != nil {
		return nil, err
	}

	best := make(map[string]float64)
	for _, r := range results {
		if r.Best.LookupsPerSec > best[r.Discipline] {
			best[r.Discipline] = r.Best.LookupsPerSec
		}
	}
	var sum summary
	if best["locked-sequent"] > 0 {
		sum.RcuOverLocked = best["rcu-sequent"] / best["locked-sequent"]
	}
	if best["sharded-sequent"] > 0 {
		sum.RcuOverSharded = best["rcu-sequent"] / best["sharded-sequent"]
	}
	sum.MeetsRcu2xLocked = sum.RcuOverLocked >= 2.0
	sum.MeetsRcu12xSharded = sum.RcuOverSharded >= 1.2

	return &report{
		Benchmark:  "parallel TPC/A read-heavy mix (parallel.MeasureThroughput)",
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     host.NumCPU,
		GoMaxProcs: host.GoMaxProcs,
		Config: map[string]any{
			"users": opt.Users, "txnsPerUser": opt.TxnsPer,
			"readFraction": opt.Read, "workers": opt.Workers,
			"opsPerWorker": opt.Ops, "batch": opt.Batch,
			"chains": opt.Chains, "rounds": opt.Rounds, "seed": opt.Seed,
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
