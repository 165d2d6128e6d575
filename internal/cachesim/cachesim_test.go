package cachesim

import (
	"testing"
	"testing/quick"
)

func mustCache(t *testing.T, cfg CacheConfig) *Cache {
	t.Helper()
	c, err := NewCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheConfigValidate(t *testing.T) {
	if err := Era1992.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []CacheConfig{
		{SizeBytes: 1024, LineBytes: 0, Ways: 1},
		{SizeBytes: 1024, LineBytes: 33, Ways: 1},
		{SizeBytes: 1000, LineBytes: 32, Ways: 2},
		{SizeBytes: 1024, LineBytes: 32, Ways: 0},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestCacheColdMissThenHit(t *testing.T) {
	c := mustCache(t, CacheConfig{SizeBytes: 1024, LineBytes: 32, Ways: 2})
	if c.Access(0) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0) {
		t.Fatal("warm access missed")
	}
	if !c.Access(31) {
		t.Fatal("same-line access missed")
	}
	if c.Access(32) {
		t.Fatal("next line should cold-miss")
	}
	if c.Accesses != 4 || c.Misses != 2 {
		t.Fatalf("accesses=%d misses=%d", c.Accesses, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way, 2 sets of 32-byte lines: lines 0,2,4 map to set 0.
	c := mustCache(t, CacheConfig{SizeBytes: 128, LineBytes: 32, Ways: 2})
	c.Access(0 * 32)
	c.Access(2 * 32)
	c.Access(0 * 32) // refresh line 0: LRU is now line 2
	c.Access(4 * 32) // evicts line 2
	if !c.Access(0 * 32) {
		t.Fatal("line 0 should have survived (was MRU)")
	}
	if c.Access(2 * 32) {
		t.Fatal("line 2 should have been evicted")
	}
}

func TestCacheWorkingSetFits(t *testing.T) {
	c := mustCache(t, Era1992)
	// Touch 4 KiB twice: second pass must be all hits in an 8 KiB cache.
	for pass := 0; pass < 2; pass++ {
		for a := uint64(0); a < 4096; a += 32 {
			c.Access(a)
		}
	}
	if c.Misses != 128 {
		t.Fatalf("misses = %d, want 128 cold only", c.Misses)
	}
}

func TestCacheThrashingWorkingSet(t *testing.T) {
	c := mustCache(t, Era1992)
	// Cyclically touch 64 KiB (8x capacity) with LRU: every access misses
	// after warm-up.
	for pass := 0; pass < 3; pass++ {
		for a := uint64(0); a < 64<<10; a += 32 {
			c.Access(a)
		}
	}
	if c.MissRate() < 0.99 {
		t.Fatalf("cyclic over-capacity miss rate = %v", c.MissRate())
	}
}

func TestCacheReset(t *testing.T) {
	c := mustCache(t, Era1992)
	c.Access(0)
	c.Reset()
	if c.Accesses != 0 || c.Misses != 0 {
		t.Fatal("counters survive reset")
	}
	if c.Access(0) {
		t.Fatal("contents survive reset")
	}
}

func TestCacheQuickNoFalseHits(t *testing.T) {
	// A line never touched must miss; a line just touched must hit.
	c := mustCache(t, CacheConfig{SizeBytes: 4096, LineBytes: 64, Ways: 4})
	f := func(addr uint32) bool {
		a := uint64(addr)
		c.Access(a)
		return c.Access(a) // immediate re-access always hits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestModelCyclesAccumulate(t *testing.T) {
	m, err := NewModel(Era1992, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.ExaminePCB(5) // cold miss: 20 cycles
	if m.Cycles != 20 || m.Exams != 1 {
		t.Fatalf("after miss: cycles=%v exams=%d", m.Cycles, m.Exams)
	}
	m.ExaminePCB(5) // hit: +1
	if m.Cycles != 21 {
		t.Fatalf("after hit: cycles=%v", m.Cycles)
	}
	if m.CyclesPerExam() != 10.5 {
		t.Fatalf("cycles/exam = %v", m.CyclesPerExam())
	}
}

// TestFigureOfMeritClaim is EXP-MEM: with 2,000 PCBs (512 KiB of PCB data
// against an 8 KiB cache) the BSD scan's estimated cycle cost must exceed
// Sequent's by roughly the same order of magnitude as the examined counts —
// the paper's justification for counting PCBs instead of cycles.
func TestFigureOfMeritClaim(t *testing.T) {
	const n, lookups = 2000, 4000
	mb, err := NewModel(Era1992, n, 3)
	if err != nil {
		t.Fatal(err)
	}
	bsd := BSDLookups(mb, n, lookups, 7)

	ms, err := NewModel(Era1992, n, 3)
	if err != nil {
		t.Fatal(err)
	}
	seq := SequentLookups(ms, n, 19, lookups, 7)

	examRatio := float64(bsd.Examined) / float64(seq.Examined)
	cycleRatio := bsd.Cycles / seq.Cycles
	if examRatio < 10 {
		t.Fatalf("exam ratio %v, expected order of magnitude", examRatio)
	}
	if cycleRatio < 5 {
		t.Fatalf("cycle ratio %v does not track exam ratio %v", cycleRatio, examRatio)
	}
	// Cycles per lookup should differ from a pure exam count by at most
	// the hit/miss spread; the correlation claim is ratio-based.
	t.Logf("BSD: %d exams %.0f cycles; Sequent: %d exams %.0f cycles",
		bsd.Examined, bsd.Cycles, seq.Examined, seq.Cycles)
}

func TestBSDLookupsMatchEq1Shape(t *testing.T) {
	const n, lookups = 500, 5000
	m, err := NewModel(Era1992, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := BSDLookups(m, n, lookups, 5)
	want := 1 + float64(n)/2 // Eq. 1 asymptote
	if float64(got.Examined) < want*0.9 || float64(got.Examined) > want*1.1 {
		t.Fatalf("modeled BSD examined %d, want ≈ %v", got.Examined, want)
	}
}

func TestSequentLookupsScaleWithChains(t *testing.T) {
	const n, lookups = 1900, 5000
	run := func(h int) LookupCost {
		m, err := NewModel(Era1992, n, 2)
		if err != nil {
			t.Fatal(err)
		}
		return SequentLookups(m, n, h, lookups, 5)
	}
	c19, c100 := run(19), run(100)
	ratio := float64(c19.Examined) / float64(c100.Examined)
	if ratio < 3.5 || ratio > 6.5 {
		t.Fatalf("19→100 chains examined ratio = %v, want ≈ 5 (§3.5)", ratio)
	}
	if c100.Cycles >= c19.Cycles {
		t.Fatal("more chains did not reduce modeled cycles")
	}
}

// TestFlatLookupsBeatChained pins the EXP-CACHE claim at model level:
// at TPC/A-like population, the packed flat-table probe costs a small
// bounded number of examinations and far fewer modeled stall cycles per
// lookup than the chained Sequent scan over the same connection count —
// the examined window is at most 8 entries and the probe never touches
// a PCB line. Also checks determinism: same seed, same numbers.
func TestFlatLookupsBeatChained(t *testing.T) {
	const n, h, lookups = 1900, 19, 5000
	mkModel := func() *Model {
		m, err := NewModel(Era1992, n, 2)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	seq := SequentLookups(mkModel(), n, h, lookups, 5)
	flat := FlatLookups(mkModel(), n, lookups, 5)
	if flat.Examined > 8 {
		t.Fatalf("flat examined %d > window bound 8", flat.Examined)
	}
	if flat.Examined < 1 {
		t.Fatalf("flat examined %d, want >= 1", flat.Examined)
	}
	if flat.Cycles*5 >= seq.Cycles {
		t.Fatalf("flat modeled cycles %.1f not well under sequent %.1f", flat.Cycles, seq.Cycles)
	}
	if again := FlatLookups(mkModel(), n, lookups, 5); again != flat {
		t.Fatalf("FlatLookups not deterministic: %+v vs %+v", again, flat)
	}
}

// TestExpCacheModelRows holds EXP-CACHE's two model rows exactly: the
// chained Sequent scan and the flat-table probe over 6,000 users, 19
// chains, 24,000 lookups, seed 7.
func TestExpCacheModelRows(t *testing.T) {
	model := func() *Model {
		m, err := NewModel(Era1992, 6000, 7)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if got, want := SequentLookups(model(), 6000, 19, 24000, 7), (LookupCost{158, 3156.9866666666667}); got != want {
		t.Errorf("chained row = %+v, want %+v", got, want)
	}
	if got, want := FlatLookups(model(), 6000, 24000, 7), (LookupCost{1, 40.7545}); got != want {
		t.Errorf("flat row = %+v, want %+v", got, want)
	}
}

// TestModelTouch checks the raw-address accounting FlatLookups builds on.
func TestModelTouch(t *testing.T) {
	m, err := NewModel(Era1992, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.Touch(1 << 20)
	if m.Cycles != m.MissCycles {
		t.Fatalf("cold touch cost %v cycles, want %v", m.Cycles, m.MissCycles)
	}
	m.Touch(1 << 20)
	if m.Cycles != m.MissCycles+m.HitCycles {
		t.Fatalf("warm touch cost %v cycles total, want %v", m.Cycles, m.MissCycles+m.HitCycles)
	}
	if m.Exams != 0 {
		t.Fatalf("Touch bumped Exams to %d", m.Exams)
	}
}

func TestNewModelBadConfig(t *testing.T) {
	if _, err := NewModel(CacheConfig{SizeBytes: 100, LineBytes: 32, Ways: 2}, 10, 1); err == nil {
		t.Fatal("bad cache config accepted")
	}
}
