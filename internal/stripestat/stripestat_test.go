package stripestat

import (
	"sync"
	"sync/atomic"
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/rng"
)

// TestDrainBoundary walks one slot's packed word up to the drain
// threshold and checks the exact hand-off into the spill counters: no
// drain below drainAt, a full transfer at it, and totals preserved
// through Fold on either side of the boundary.
func TestDrainBoundary(t *testing.T) {
	var s Stripes
	s.Init()
	sl := &s.slots[0]

	sl.add(1<<21, 3)
	if got := sl.packed.Load(); got != (1<<21)<<packShift+3 {
		t.Fatalf("packed after first add = %#x, want %#x", got, uint64(1<<21)<<packShift+3)
	}
	if sl.spillLookups.Load() != 0 || sl.spillExamined.Load() != 0 {
		t.Fatalf("spill counters drained below threshold: lookups=%d examined=%d",
			sl.spillLookups.Load(), sl.spillExamined.Load())
	}

	// One lookup short of the 2^22 threshold: still no drain.
	sl.add(1<<21-1, 5)
	if sl.spillLookups.Load() != 0 {
		t.Fatalf("spill drained one lookup below threshold")
	}
	if got := s.Fold(); got.Lookups != 1<<22-1 || got.Examined != 8 {
		t.Fatalf("pre-drain Fold = %+v, want Lookups=%d Examined=8", got, 1<<22-1)
	}

	// The add that reaches drainAt transfers the whole word.
	sl.add(1, 0)
	if got := sl.packed.Load(); got != 0 {
		t.Fatalf("packed not drained at threshold: %#x", got)
	}
	if l, e := sl.spillLookups.Load(), sl.spillExamined.Load(); l != 1<<22 || e != 8 {
		t.Fatalf("spills after drain = (%d, %d), want (%d, 8)", l, e, 1<<22)
	}
	if got := s.Fold(); got.Lookups != 1<<22 || got.Examined != 8 {
		t.Fatalf("post-drain Fold = %+v, want Lookups=%d Examined=8", got, 1<<22)
	}
}

// syntheticResults builds a deterministic mix of hit / miss / wildcard
// results with varying examination counts.
func syntheticResults(n int, seed uint64) []core.Result {
	src := rng.New(seed)
	pcb := core.NewPCB(core.Key{})
	out := make([]core.Result, n)
	for i := range out {
		r := core.Result{Examined: int(src.Uint64() % 37)}
		switch src.Uint64() % 4 {
		case 0: // miss
		case 1:
			r.PCB = pcb
			r.CacheHit = true
		case 2:
			r.PCB = pcb
			r.Wildcard = true
		case 3:
			r.PCB = pcb
		}
		out[i] = r
	}
	return out
}

// TestRecordBatchEquivalence checks that folding results one at a time
// with Record and in train-local core.Stats folded by RecordBatch lands
// on identical statistics.
func TestRecordBatchEquivalence(t *testing.T) {
	results := syntheticResults(10_000, 99)

	var perRecord Stripes
	perRecord.Init()
	for _, r := range results {
		perRecord.Record(r)
	}

	var batched Stripes
	batched.Init()
	var acc core.Stats
	for i, r := range results {
		acc.Record(r)
		if (i+1)%16 == 0 {
			batched.RecordBatch(acc)
			acc = core.Stats{}
		}
	}
	batched.RecordBatch(acc)

	// Both must match a plain core.Stats fold exactly.
	var oracle core.Stats
	for _, r := range results {
		oracle.Record(r)
	}

	a, b := perRecord.Fold(), batched.Fold()
	if a != b {
		t.Fatalf("Record fold %+v != RecordBatch fold %+v", a, b)
	}
	if a != oracle {
		t.Fatalf("striped fold %+v != core.Stats oracle %+v", a, oracle)
	}
}

// TestRecordBatchEmpty checks the zero-batch early return records
// nothing (not even a MaxExamined bump).
func TestRecordBatchEmpty(t *testing.T) {
	var s Stripes
	s.Init()
	s.RecordBatch(core.Stats{MaxExamined: 7})
	if got := s.Fold(); got != (core.Stats{}) {
		t.Fatalf("empty RecordBatch recorded %+v", got)
	}
}

// TestBumpMax checks the running maximum never decreases and lands on
// the true maximum regardless of arrival order.
func TestBumpMax(t *testing.T) {
	var s Stripes
	s.Init()
	sl := &s.slots[0]
	for _, v := range []int64{5, 3, 9, 9, 1} {
		sl.bumpMax(v)
	}
	if got := sl.maxExamined.Load(); got != 9 {
		t.Fatalf("bumpMax sequence folded to %d, want 9", got)
	}
	if got := s.Fold().MaxExamined; got != 9 {
		t.Fatalf("Fold MaxExamined = %d, want 9", got)
	}
}

// TestFoldVsDrainConcurrent races Fold against adds sized to drain
// every other call. Each concurrent snapshot must stay below the
// completed work plus one in-flight add — the old packed-before-spills
// load order could exceed that bound by a whole drained word (2^22
// lookups) when a drain landed between the two loads — and the final
// quiescent fold must be exact. Run with -race.
func TestFoldVsDrainConcurrent(t *testing.T) {
	var s Stripes
	s.Init()

	const (
		addLookups = 1 << 21 // two adds per drain
		adds       = 4096
	)
	var completed atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < adds; i++ {
			s.RecordBatch(core.Stats{Lookups: addLookups, Examined: 1})
			completed.Add(1)
		}
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for loop := true; loop; {
		select {
		case <-done:
			loop = false
		default:
		}
		snap := s.Fold()
		// Everything Fold saw was added by at most (completed-after + 1
		// in-flight) RecordBatch calls.
		upper := (completed.Load() + 1) * addLookups
		if snap.Lookups > upper {
			t.Fatalf("concurrent Fold counted %d lookups, bound %d (double-counted a drained word?)",
				snap.Lookups, upper)
		}
	}

	final := s.Fold()
	if want := uint64(adds * addLookups); final.Lookups != want {
		t.Fatalf("final Fold lookups = %d, want %d", final.Lookups, want)
	}
	if final.Examined != adds {
		t.Fatalf("final Fold examined = %d, want %d", final.Examined, adds)
	}
}
