package tcpdemux

import (
	"os"
	"testing"
)

// TestTelemetryOverhead is the instrumentation-cost acceptance check: the
// telemetry-wrapped BenchmarkParallelTPCA workload on the per-chain-lock
// table must run within 5% of the bare one. It re-measures both sides
// with testing.Benchmark, so it is a real wall-clock comparison and runs
// only when asked for (TELEMETRY_OVERHEAD=1), keeping make test stable on
// noisy machines.
func TestTelemetryOverhead(t *testing.T) {
	if os.Getenv("TELEMETRY_OVERHEAD") == "" {
		t.Skip("set TELEMETRY_OVERHEAD=1 to measure instrumentation overhead")
	}
	bareRun := parallelTPCA("sharded-sequent", false)
	instrRun := parallelTPCA("sharded-sequent", true)

	// Interleave the two sides round by round and take each side's best:
	// a background slowdown then hits both sides instead of biasing
	// whichever ran last. The first round is a discarded warmup.
	testing.Benchmark(bareRun)
	bare, instr := 0.0, 0.0
	for i := 0; i < 5; i++ {
		b := float64(testing.Benchmark(bareRun).NsPerOp())
		n := float64(testing.Benchmark(instrRun).NsPerOp())
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
