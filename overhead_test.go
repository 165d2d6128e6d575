package tcpdemux

import (
	"os"
	"sync/atomic"
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/parallel"
	"tcpdemux/internal/rng"
	"tcpdemux/internal/telemetry"
	"tcpdemux/internal/tpca"
)

// TestTelemetryOverhead is the ISSUE's instrumentation-cost acceptance:
// the telemetry-wrapped BenchmarkParallelTPCA workload must run within
// 5% of the bare one. It re-measures both sides with testing.Benchmark,
// so it is a real wall-clock comparison and runs only when asked for
// (TELEMETRY_OVERHEAD=1), keeping make test stable on noisy machines.
func TestTelemetryOverhead(t *testing.T) {
	if os.Getenv("TELEMETRY_OVERHEAD") == "" {
		t.Skip("set TELEMETRY_OVERHEAD=1 to measure instrumentation overhead")
	}
	parallelStream.once.Do(func() {
		parallelStream.stream, parallelStream.err = parallel.TPCAStream(1000, 4, 7)
	})
	if parallelStream.err != nil {
		t.Fatal(parallelStream.err)
	}
	stream := parallelStream.stream
	const users = 1000
	const readFraction = 0.99

	// The workload is the BenchmarkParallelTPCA perpacket body verbatim
	// (rng draw per op, 1% connection churn, per-packet Lookup) so the
	// measured ratio is the regression the acceptance criterion names.
	workload := func(instrumented bool) func(b *testing.B) {
		return func(b *testing.B) {
			shared, m, err := newParallelBenchDemux("rcu-sequent", instrumented)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < users; i++ {
				if err := shared.Insert(core.NewPCB(tpca.UserKey(i))); err != nil {
					b.Fatal(err)
				}
			}
			var worker atomic.Int64
			b.SetParallelism(4)
			b.ResetTimer()
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
		}
	}

	// Interleave the two sides round by round and take each side's best,
	// the same drift defense benchjson uses: a background slowdown then
	// hits both sides instead of biasing whichever ran last. The first
	// round is a discarded warmup.
	testing.Benchmark(workload(false))
	bare, instr := 0.0, 0.0
	for i := 0; i < 5; i++ {
		b := float64(testing.Benchmark(workload(false)).NsPerOp())
		n := float64(testing.Benchmark(workload(true)).NsPerOp())
		if bare == 0 || b < bare {
			bare = b
		}
		if instr == 0 || n < instr {
			instr = n
		}
	}
	ratio := instr / bare
	t.Logf("bare %.1f ns/op, instrumented %.1f ns/op, ratio %.4f", bare, instr, ratio)
	if ratio > 1.05 {
		t.Errorf("telemetry overhead %.1f%% exceeds the 5%% budget", (ratio-1)*100)
	}
}
