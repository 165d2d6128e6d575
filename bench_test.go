// Package tcpdemux holds the repo-level benchmark harness: one benchmark
// per figure and per quoted result of McKenney & Dove 1992, plus the
// ablation benches DESIGN.md calls out. Each bench reports the paper's
// figure of merit — PCBs examined per inbound packet — via ReportMetric
// ("PCBs/pkt") next to ordinary ns/op wall-clock costs.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The EXPERIMENTS.md tables are regenerated from these benches and the
// cmd/analytic, cmd/demuxsim and cmd/figures tools.
package tcpdemux

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tcpdemux/internal/analytic"
	"tcpdemux/internal/cachesim"
	"tcpdemux/internal/churn"
	"tcpdemux/internal/connid"
	"tcpdemux/internal/core"
	"tcpdemux/internal/hashfn"
	"tcpdemux/internal/parallel"
	"tcpdemux/internal/rng"
	"tcpdemux/internal/stats"
	"tcpdemux/internal/telemetry"
	"tcpdemux/internal/tpca"
	"tcpdemux/internal/trains"
	"tcpdemux/internal/wire"
)

// paperN is the paper's running example: 2,000 users (200 TPC/A TPS).
const paperN = 2000

// tpcaCfg is the paper's reference configuration.
func tpcaCfg(n int, seed uint64) tpca.Config {
	return tpca.Config{
		Users: n, ResponseTime: 0.2, RTT: 0.001, Seed: seed,
		// Three warm-up transactions per user lets the list orders reach
		// steady state (MTF in particular); two measured per user keeps
		// the slowest case (BSD at N=2000: ~8M key comparisons) inside a
		// benchmark iteration.
		WarmupTxns: 3 * n, MeasuredTxns: 2 * n,
	}
}

// runTPCA executes one simulation run and reports PCBs/packet.
func runTPCA(b *testing.B, algo string, n int, chains int) {
	b.Helper()
	var last *tpca.Result
	for i := 0; i < b.N; i++ {
		d, err := core.New(algo, core.Config{Chains: chains})
		if err != nil {
			b.Fatal(err)
		}
		res, err := tpca.Run(d, tpcaCfg(n, uint64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Overall.Mean(), "PCBs/pkt")
	b.ReportMetric(last.Txn.Mean(), "PCBs/txn")
	b.ReportMetric(last.Ack.Mean(), "PCBs/ack")
	b.ReportMetric(last.CacheHitRate*100, "hit%")
}

// --- EXP-3.1: BSD under TPC/A (paper: 1,001 PCBs, hit rate 0.05%) ------------

func BenchmarkFigBSD(b *testing.B) {
	runTPCA(b, "bsd", paperN, 0)
}

// --- EXP-3.2: Crowcroft MTF (paper: 549/618/724/904 overall) -----------------

func BenchmarkFigMTF(b *testing.B) {
	for _, r := range []float64{0.2, 0.5, 1.0, 2.0} {
		r := r
		b.Run(fmt.Sprintf("R=%.1f", r), func(b *testing.B) {
			var last *tpca.Result
			for i := 0; i < b.N; i++ {
				cfg := tpcaCfg(paperN, uint64(i)+1)
				cfg.ResponseTime = r
				d := core.NewMTFList()
				res, err := tpca.Run(d, cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.Overall.Mean(), "PCBs/pkt")
			b.ReportMetric(analytic.Crowcroft(analytic.Params{N: paperN, R: r})+1, "model")
		})
	}
}

// --- EXP-3.3: SR cache (paper: 667/993/1002 for D = 1/10/100 ms) -------------

func BenchmarkFigSR(b *testing.B) {
	for _, d := range []float64{0.001, 0.010, 0.100} {
		d := d
		b.Run(fmt.Sprintf("D=%.0fms", d*1000), func(b *testing.B) {
			var last *tpca.Result
			for i := 0; i < b.N; i++ {
				cfg := tpcaCfg(paperN, uint64(i)+1)
				cfg.RTT = d
				demux := core.NewSRCache()
				res, err := tpca.Run(demux, cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.Overall.Mean(), "PCBs/pkt")
			b.ReportMetric(analytic.SR(analytic.Params{N: paperN, R: 0.2, D: d}), "model")
		})
	}
}

// --- EXP-3.4: Sequent (paper: 53.0 at H=19; < 9 at H=100) --------------------

func BenchmarkFigSequent(b *testing.B) {
	for _, h := range []int{19, 51, 100} {
		h := h
		b.Run(fmt.Sprintf("H=%d", h), func(b *testing.B) {
			var last *tpca.Result
			for i := 0; i < b.N; i++ {
				d := core.NewSequentHash(h, nil)
				res, err := tpca.Run(d, tpcaCfg(paperN, uint64(i)+1))
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			model, err := analytic.Sequent(analytic.Params{N: paperN, R: 0.2, H: h})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(last.Overall.Mean(), "PCBs/pkt")
			b.ReportMetric(model, "model")
			b.ReportMetric(last.CacheHitRate*100, "hit%")
		})
	}
}

// --- FIG-4: N(T) curve ---------------------------------------------------------

func BenchmarkFig4(b *testing.B) {
	var pts []analytic.Point
	for i := 0; i < b.N; i++ {
		pts = analytic.Figure4(paperN, 50, 101)
	}
	b.ReportMetric(pts[len(pts)-1].Y, "N(50s)")
	b.ReportMetric(pts[20].Y, "N(10s)")
}

// --- FIG-13 / FIG-14: comparison curves ------------------------------------------

func BenchmarkFig13(b *testing.B) {
	var series []analytic.Series
	for i := 0; i < b.N; i++ {
		series = analytic.Figure13()
	}
	// Report the right edge of the figure: costs at N=10,000.
	for _, s := range series {
		b.ReportMetric(s.Points[len(s.Points)-1].Y, strings.ReplaceAll(s.Label, " ", "_")+"@10k")
	}
}

func BenchmarkFig14(b *testing.B) {
	var series []analytic.Series
	for i := 0; i < b.N; i++ {
		series = analytic.Figure14()
	}
	for _, s := range series {
		b.ReportMetric(s.Points[len(s.Points)-1].Y, strings.ReplaceAll(s.Label, " ", "_")+"@1k")
	}
}

// --- EXP-PT: packet trains (abstract's "still maintaining good performance") ----

func BenchmarkTrains(b *testing.B) {
	cfg := trains.Config{Connections: 8, MeanTrainLen: 20, Segments: 40000}
	for _, algo := range []string{"bsd", "sr", "sequent", "map"} {
		algo := algo
		b.Run(algo, func(b *testing.B) {
			var last *trains.Result
			for i := 0; i < b.N; i++ {
				c := cfg
				c.Seed = uint64(i) + 1
				d, err := core.New(algo, core.Config{Chains: 19})
				if err != nil {
					b.Fatal(err)
				}
				res, err := trains.Run(d, c)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.Examined.Mean(), "PCBs/pkt")
			b.ReportMetric(last.CacheHitRate*100, "hit%")
		})
	}
}

// --- EXP-POS: deterministic think time (MTF worst case) --------------------------

func BenchmarkPolling(b *testing.B) {
	for _, algo := range []string{"bsd", "mtf", "sequent"} {
		algo := algo
		b.Run(algo, func(b *testing.B) {
			var last *tpca.Result
			for i := 0; i < b.N; i++ {
				cfg := tpcaCfg(500, uint64(i)+1)
				cfg.Think = rng.ConstDist{V: tpca.DefaultThinkMean}
				d, err := core.New(algo, core.Config{Chains: 19})
				if err != nil {
					b.Fatal(err)
				}
				res, err := tpca.Run(d, cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.Txn.Mean(), "PCBs/txn")
			b.ReportMetric(last.Overall.Mean(), "PCBs/pkt")
		})
	}
}

// --- EXP-HASH: hash function quality ([Jai89] context) ----------------------------

func BenchmarkHash(b *testing.B) {
	tuples := hashfn.SequentialClients(paperN)
	for _, f := range hashfn.All() {
		f := f
		b.Run(f.Name(), func(b *testing.B) {
			var h uint32
			for i := 0; i < b.N; i++ {
				h ^= f.Hash(tuples[i%len(tuples)])
			}
			_ = h
			counts := hashfn.ChainCounts(f, tuples, 19)
			b.ReportMetric(stats.CoefficientOfVariation(counts), "chainCV")
		})
	}
}

// --- EXP-MEM: figure-of-merit claim (examined tracks memory stalls) ----------------

func BenchmarkMemModel(b *testing.B) {
	const lookups = 2000
	b.Run("bsd", func(b *testing.B) {
		var cost cachesim.LookupCost
		for i := 0; i < b.N; i++ {
			m, err := cachesim.NewModel(cachesim.Era1992, paperN, uint64(i)+1)
			if err != nil {
				b.Fatal(err)
			}
			cost = cachesim.BSDLookups(m, paperN, lookups, uint64(i)+7)
		}
		b.ReportMetric(float64(cost.Examined), "PCBs/pkt")
		b.ReportMetric(cost.Cycles, "modelCycles/pkt")
	})
	b.Run("sequent", func(b *testing.B) {
		var cost cachesim.LookupCost
		for i := 0; i < b.N; i++ {
			m, err := cachesim.NewModel(cachesim.Era1992, paperN, uint64(i)+1)
			if err != nil {
				b.Fatal(err)
			}
			cost = cachesim.SequentLookups(m, paperN, 19, lookups, uint64(i)+7)
		}
		b.ReportMetric(float64(cost.Examined), "PCBs/pkt")
		b.ReportMetric(cost.Cycles, "modelCycles/pkt")
	})
}

// --- EXP-COMBO: MTF-in-chains vs more chains vs connection IDs (§3.5) ---------------

func BenchmarkCombo(b *testing.B) {
	cases := []struct {
		name   string
		algo   string
		chains int
	}{
		{"sequent-19", "sequent", 19},
		{"mtf-hash-19", "mtf-hash", 19},
		{"sequent-100", "sequent", 100},
		{"auto-sequent", "auto-sequent", 0},
		{"direct-index", "direct-index", 0},
		{"map", "map", 0},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var last *tpca.Result
			for i := 0; i < b.N; i++ {
				d, err := core.New(c.algo, core.Config{Chains: c.chains})
				if err != nil {
					b.Fatal(err)
				}
				res, err := tpca.Run(d, tpcaCfg(paperN, uint64(i)+1))
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.Overall.Mean(), "PCBs/pkt")
		})
	}
}

// --- wall-clock micro-benchmarks: actual lookup latency ------------------------------

// BenchmarkLookup measures real ns/op per lookup at 200, 2,000 (the
// paper's population) and 6,000 connections, steady-state uniform targets.
// It reports ns/PCB beside PCBs/pkt: the paper's "surrogate for time"
// argument holds where ns/PCB stays flat as the examined count grows
// (EXP-NSPCB).
func BenchmarkLookup(b *testing.B) {
	for _, algo := range core.Algorithms() {
		for _, n := range []int{200, paperN, 6000} {
			b.Run(fmt.Sprintf("%s/N=%d", algo, n), func(b *testing.B) {
				d, err := core.New(algo, core.Config{Chains: 19})
				if err != nil {
					b.Fatal(err)
				}
				keys := make([]core.Key, n)
				for i := range keys {
					keys[i] = tpca.UserKey(i)
					if err := d.Insert(core.NewPCB(keys[i])); err != nil {
						b.Fatal(err)
					}
				}
				src := rng.New(1)
				order := make([]int, 8192)
				for i := range order {
					order[i] = src.Intn(n)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d.Lookup(keys[order[i%len(order)]], core.DirData)
				}
				st := d.Stats()
				b.ReportMetric(st.MeanExamined(), "PCBs/pkt")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(st.Examined), "ns/PCB")
			})
		}
	}
}

// wireDemuxFrames builds the frame set BenchmarkWireDemux replays and
// inserts the matching PCBs into each provided demuxer-shaped insert
// function.
func wireDemuxFrames(b *testing.B, n int, insert ...func(*core.PCB) error) [][]byte {
	b.Helper()
	frames := make([][]byte, n)
	for i := range frames {
		k := tpca.UserKey(i)
		for _, ins := range insert {
			if err := ins(core.NewPCB(k)); err != nil {
				b.Fatal(err)
			}
		}
		t := k.Tuple()
		frame, err := wire.BuildSegment(
			wire.IPv4Header{TTL: 64, Src: t.SrcAddr, Dst: t.DstAddr},
			wire.TCPHeader{SrcPort: t.SrcPort, DstPort: t.DstPort, Flags: wire.FlagACK},
			nil,
		)
		if err != nil {
			b.Fatal(err)
		}
		frames[i] = frame
	}
	return frames
}

// BenchmarkWireDemux measures the full receive fast path: raw frame →
// tuple extraction → hashed lookup, the end-to-end cost a driver would
// see, on the unsynchronized Sequent table its one owner looks up.
func BenchmarkWireDemux(b *testing.B) {
	b.Run("sequent", func(b *testing.B) {
		d := core.NewSequentHash(19, nil)
		frames := wireDemuxFrames(b, 512, d.Insert)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tuple, err := wire.ExtractTuple(frames[i%len(frames)])
			if err != nil {
				b.Fatal(err)
			}
			if r := d.Lookup(core.KeyFromTuple(tuple), core.DirAck); r.PCB == nil {
				b.Fatal("lost a PCB")
			}
		}
	})
}

// --- EXP-PAR: parallel demultiplexing (the [Dov90] context) --------------------------

// BenchmarkParallel measures lookup throughput under goroutine load
// across the two locking disciplines head-to-head: a single global lock
// (what a shared linear list forces) and the Sequent table with one lock
// per hash chain — the design Sequent's parallel STREAMS TCP shipped
// [Dov90]. Run with -cpu 1,4,8 to see the scaling gap.
func BenchmarkParallel(b *testing.B) {
	const n = 1000
	cases := []struct {
		name  string
		build func() core.Concurrent
	}{
		{"locked-bsd", func() core.Concurrent { return parallel.NewLocked(core.NewBSDList()) }},
		{"locked-sequent", func() core.Concurrent { return parallel.NewLocked(core.NewSequentHash(19, nil)) }},
		{"sharded-sequent-19", func() core.Concurrent { return parallel.NewShardedSequent(19, nil) }},
		{"sharded-sequent-128", func() core.Concurrent { return parallel.NewShardedSequent(128, nil) }},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			d := c.build()
			keys := make([]core.Key, n)
			for i := range keys {
				keys[i] = tpca.UserKey(i)
				if err := d.Insert(core.NewPCB(keys[i])); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				src := rng.New(uint64(42))
				for pb.Next() {
					if r := d.Lookup(keys[src.Intn(n)], core.DirData); r.PCB == nil {
						b.Fatal("lost a PCB")
					}
				}
			})
		})
	}
}

// BenchmarkParallelTPCA is the read-heavy acceptance benchmark: a
// recorded TPC/A inbound packet stream (99% of operations) mixed with 1%
// connection churn, replayed by 4×GOMAXPROCS goroutines against each
// locking discipline, one key per lookup. The TPC/A stream carries the
// response-interval locality the paper's analysis rests on, so the
// per-chain caches hit at their realistic rate and the synchronization
// cost is a visible fraction of each lookup. Oversubscribing the Ps (as
// receive contexts outnumber CPUs on a real endsystem) also exercises
// lock-holder preemption: a goroutine descheduled inside a critical
// section stalls every contender on that lock. lookups/sec is reported as
// a metric next to ns/op.
//
// The /telemetry variants run the same workload with each worker
// observing through its own telemetry.LocalDemux (single-writer
// examined/outcome accumulation, flushed at worker exit), making the
// instrumentation overhead a directly comparable benchmark line; see
// overhead_test.go for the <5% acceptance check.
func BenchmarkParallelTPCA(b *testing.B) {
	for _, name := range []string{"locked-sequent", "sharded-sequent"} {
		for _, instrumented := range []bool{false, true} {
			bname := name + "/perpacket"
			if instrumented {
				bname += "/telemetry"
			}
			b.Run(bname, parallelTPCA(name, instrumented))
		}
	}
}

// parallelStream caches the recorded TPC/A inbound stream parallelTPCA
// replays; recording it once keeps per-subbenchmark setup cheap.
var parallelStream struct {
	once   sync.Once
	stream []parallel.Op
	err    error
}

// parallelTPCA is BenchmarkParallelTPCA's body for one discipline,
// optionally instrumented (a fresh registry per run, so runs never share
// histograms).
func parallelTPCA(name string, instrumented bool) func(*testing.B) {
	const users = 1000
	const readFraction = 0.99
	return func(b *testing.B) {
		parallelStream.once.Do(func() {
			parallelStream.stream, parallelStream.err = parallel.TPCAStream(users, 4, 7)
		})
		if parallelStream.err != nil {
			b.Fatal(parallelStream.err)
		}
		stream := parallelStream.stream
		shared, err := parallel.New(name, core.Config{Chains: 19})
		if err != nil {
			b.Fatal(err)
		}
		var m *telemetry.DemuxMetrics
		if instrumented {
			m = telemetry.NewDemuxMetrics(telemetry.NewRegistry(), name)
		}
		for i := 0; i < users; i++ {
			if err := shared.Insert(core.NewPCB(tpca.UserKey(i))); err != nil {
				b.Fatal(err)
			}
		}
		var worker atomic.Int64
		b.SetParallelism(4)
		b.ResetTimer()
		start := time.Now()
		b.RunParallel(func(pb *testing.PB) {
			var d core.Table = shared
			if m != nil {
				ld := telemetry.InstrumentLocal(shared, m)
				defer ld.Flush()
				d = ld
			}
			w := int(worker.Add(1)) - 1
			src := rng.New(uint64(w)*7919 + 42)
			pos := (w * 65537) % len(stream)
			churnBase := users + 100 + w*32
			for pb.Next() {
				if src.Float64() >= readFraction {
					k := tpca.UserKey(churnBase + src.Intn(32))
					if !d.Remove(k) {
						_ = d.Insert(core.NewPCB(k))
					}
					continue
				}
				op := stream[pos]
				pos++
				if pos == len(stream) {
					pos = 0
				}
				d.Lookup(op.Key, op.Dir)
			}
		})
		elapsed := time.Since(start).Seconds()
		if elapsed > 0 {
			b.ReportMetric(float64(b.N)/elapsed, "lookups/sec")
		}
		st := shared.Snapshot()
		if st.Lookups > 0 {
			b.ReportMetric(st.MeanExamined(), "PCBs/pkt")
			b.ReportMetric(st.HitRate()*100, "hit%")
		}
	}
}

// --- EXP-CONNID: protocol connection IDs vs hashing (§3.5) ---------------------------

// BenchmarkConnID compares full receive paths at the paper's population:
// the TP4-style option scan + array index against tuple extraction +
// hashed lookup. §3.5's argument — "the much cheaper search provided by
// hashing eliminates the motivation for connection IDs" — holds if the
// wall-clock gap here is small.
func BenchmarkConnID(b *testing.B) {
	const n = paperN
	makeFrame := func(i int, withID func(i int) []wire.TCPOption) []byte {
		k := tpca.UserKey(i)
		tu := k.Tuple()
		tcp := wire.TCPHeader{
			SrcPort: tu.SrcPort, DstPort: tu.DstPort, Flags: wire.FlagACK | wire.FlagPSH,
		}
		if withID != nil {
			tcp.Options = withID(i)
		}
		frame, err := wire.BuildSegment(
			wire.IPv4Header{TTL: 64, Src: tu.SrcAddr, Dst: tu.DstAddr}, tcp, []byte("q"))
		if err != nil {
			b.Fatal(err)
		}
		return frame
	}

	b.Run("connid-option", func(b *testing.B) {
		tbl := connid.NewTable()
		ids := make([]uint32, n)
		for i := 0; i < n; i++ {
			_, id, err := tbl.Open(tpca.UserKey(i))
			if err != nil {
				b.Fatal(err)
			}
			ids[i] = id
		}
		frames := make([][]byte, 512)
		for i := range frames {
			frames[i] = makeFrame(i, func(i int) []wire.TCPOption {
				return []wire.TCPOption{connid.Option(ids[i])}
			})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tbl.DemuxFrame(frames[i%len(frames)]); err != nil {
				b.Fatal(err)
			}
		}
	})

	for _, algo := range []string{"sequent", "map"} {
		algo := algo
		b.Run("tuple-"+algo, func(b *testing.B) {
			d, err := core.New(algo, core.Config{Chains: 19})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := d.Insert(core.NewPCB(tpca.UserKey(i))); err != nil {
					b.Fatal(err)
				}
			}
			frames := make([][]byte, 512)
			for i := range frames {
				frames[i] = makeFrame(i, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tu, err := wire.ExtractTuple(frames[i%len(frames)])
				if err != nil {
					b.Fatal(err)
				}
				if r := d.Lookup(core.KeyFromTuple(tu), core.DirData); r.PCB == nil {
					b.Fatal("lost a PCB")
				}
			}
		})
	}
}

// --- EXP-CHURN: connection turnover with TIME_WAIT linger ------------------------------

func BenchmarkChurn(b *testing.B) {
	for _, algo := range []string{"bsd", "sequent", "map"} {
		algo := algo
		b.Run(algo, func(b *testing.B) {
			var last *churn.Result
			for i := 0; i < b.N; i++ {
				d, err := core.New(algo, core.Config{Chains: 19})
				if err != nil {
					b.Fatal(err)
				}
				res, err := churn.Run(d, churn.Config{
					Sessions: 200, MeasuredSessions: 1000, Seed: uint64(i) + 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.Examined.Mean(), "PCBs/pkt")
			b.ReportMetric(last.Population.Mean(), "PCBs-total")
			b.ReportMetric(last.TimeWait.Mean(), "PCBs-timewait")
		})
	}
}

// --- wire-level simulation overhead ---------------------------------------------------

// BenchmarkWireLevelSim compares the simulation driving lookups from its
// in-memory keys against the wire-level mode that serializes and re-parses
// real frames — the cost of the receive fast path at workload scale.
func BenchmarkWireLevelSim(b *testing.B) {
	for _, wireLevel := range []bool{false, true} {
		name := "fastpath"
		if wireLevel {
			name = "wire"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := tpcaCfg(500, uint64(i)+1)
				cfg.WireLevel = wireLevel
				d := core.NewSequentHash(19, nil)
				if _, err := tpca.Run(d, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- auto-resizing table growth (automating the §3.5 sizing knob) ---------------------

// BenchmarkAutoSequentGrowth measures steady-state lookup cost at growing
// populations: the fixed 19-chain table degrades linearly in N while the
// auto-resizing table holds its bound.
func BenchmarkAutoSequentGrowth(b *testing.B) {
	for _, n := range []int{500, 2000, 8000} {
		n := n
		for _, algo := range []string{"sequent", "auto-sequent"} {
			algo := algo
			b.Run(fmt.Sprintf("%s/N=%d", algo, n), func(b *testing.B) {
				d, err := core.New(algo, core.Config{Chains: 19})
				if err != nil {
					b.Fatal(err)
				}
				keys := make([]core.Key, n)
				for i := range keys {
					keys[i] = tpca.UserKey(i)
					if err := d.Insert(core.NewPCB(keys[i])); err != nil {
						b.Fatal(err)
					}
				}
				src := rng.New(9)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d.Lookup(keys[src.Intn(n)], core.DirData)
				}
				b.ReportMetric(d.Stats().MeanExamined(), "PCBs/pkt")
			})
		}
	}
}
