package lint

import "testing"

func TestVirtualTimeFixture(t *testing.T) {
	runFixture(t, VirtualTime(PathPrefixFilter("vtime")), "vtime")
}

// TestVirtualTimeFilter proves the package filter keeps the analyzer out
// of packages that are allowed to read the wall clock.
func TestVirtualTimeFilter(t *testing.T) {
	runSilent(t, VirtualTime(PathPrefixFilter("tcpdemux/internal/sim")), "vtime")
}

func TestSeededRandFixture(t *testing.T) {
	runFixture(t, SeededRand(), "srand")
}

func TestMapIterFixture(t *testing.T) {
	runFixture(t, MapIter(nil), "miter")
}

func TestMapIterFilter(t *testing.T) {
	runSilent(t, MapIter(PathPrefixFilter("tcpdemux/internal/core")), "miter")
}

// TestAtomicPubAccessFixture runs atomicpub over its fixture: plain
// reads, writes, increments and copies of a marked field are flagged,
// atomic-wrapper calls and address-of are not.
func TestAtomicPubAccessFixture(t *testing.T) {
	runFixture(t, AtomicPub(), "afield")
}

func TestSingleWriterFixture(t *testing.T) {
	runFixture(t, SingleWriter(), "swriter")
}

// TestStaleWaiverFixture runs seededrand (which consults the one earned
// waiver) and stalewaiver together: only the orphaned waiver is
// reported, at its own comment.
func TestStaleWaiverFixture(t *testing.T) {
	p := loadFixture(t, "swaiver")
	diags, err := Run(p, []*Analyzer{SeededRand(), StaleWaiver()})
	if err != nil {
		t.Fatal(err)
	}
	assertDiags(t, diags, []diagWant{
		{fixtureLine(t, "swaiver", "swaiver.go", "stale — the call below was deleted"), "stalewaiver", "stale waiver"},
	})
}

// TestStaleWaiverUnconsulted pins the "never looked" rule: when the
// consuming analyzer does not run (here, seededrand), even the earned
// waiver suppresses nothing and both are stale.
func TestStaleWaiverUnconsulted(t *testing.T) {
	p := loadFixture(t, "swaiver")
	diags, err := Run(p, []*Analyzer{StaleWaiver()})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("want 2 stale waivers with no consuming analyzer, got %d: %v", len(diags), diags)
	}
}

func TestHotAllocFixture(t *testing.T) {
	runFixture(t, HotAlloc(), "halloc")
}

// TestTelemetryMetricFixture runs atomicpub and hotalloc together over
// telemetry-idiom metric code (striped atomic slots observed by
// zero-alloc hot paths), the combination demuxvet applies to
// internal/telemetry.
func TestTelemetryMetricFixture(t *testing.T) {
	runFixtureAll(t, []*Analyzer{AtomicPub(), HotAlloc()}, "tmetric")
}

// TestFlatEntryFixture runs atomicpub and hotalloc together over
// flat-table-idiom code (packed probe-group entries scanned by zero-alloc
// hot paths next to striped atomic counters).
func TestFlatEntryFixture(t *testing.T) {
	runFixtureAll(t, []*Analyzer{AtomicPub(), HotAlloc()}, "fentry")
}

// TestDirectiveSilentOnWellFormed runs the grammar analyzer over a
// fixture whose directives are all valid.
func TestDirectiveSilentOnWellFormed(t *testing.T) {
	runSilent(t, Directive(), "afield")
}

// TestHotAllocSilentOffHotpath runs hotalloc on the allocation-heavy
// mapiter fixture, which has no //demux:hotpath markers: no diagnostics.
func TestHotAllocSilentOffHotpath(t *testing.T) {
	runSilent(t, HotAlloc(), "miter")
}

func TestPathPrefixFilter(t *testing.T) {
	f := PathPrefixFilter("tcpdemux/internal/sim", "tcpdemux/internal/engine")
	cases := []struct {
		path string
		want bool
	}{
		{"tcpdemux/internal/sim", true},
		{"tcpdemux/internal/sim/sub", true},
		{"tcpdemux/internal/sim [tcpdemux/internal/sim.test]", true},
		{"tcpdemux/internal/simulator", false},
		{"tcpdemux/internal/engine", true},
		{"tcpdemux/internal/core", false},
	}
	for _, c := range cases {
		if got := f(c.path); got != c.want {
			t.Errorf("PathPrefixFilter(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}
