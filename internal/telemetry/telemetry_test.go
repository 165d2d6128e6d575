package telemetry

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"tcpdemux/internal/rng"
	"tcpdemux/internal/stats"
)

func TestMetricIDCanonical(t *testing.T) {
	a := metricID("m", []Label{L("b", "2"), L("a", "1")})
	b := metricID("m", []Label{L("a", "1"), L("b", "2")})
	if a != b {
		t.Fatalf("label order changed identity: %q vs %q", a, b)
	}
	if want := `m{a="1",b="2"}`; a != want {
		t.Fatalf("metricID = %q, want %q", a, want)
	}
	if metricID("bare", nil) != "bare" {
		t.Fatalf("unlabeled metricID should be the bare name")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("hits", L("d", "x"))
	c2 := r.Counter("hits", L("d", "x"))
	if c1 != c2 {
		t.Fatalf("same identity returned distinct counters")
	}
	if r.Counter("hits", L("d", "y")) == c1 {
		t.Fatalf("distinct label sets shared a counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("kind collision did not panic")
		}
	}()
	r.Gauge("hits", L("d", "x"))
}

func TestGaugeLastValueWins(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("skew")
	g.Set(1.5)
	g.Set(-3.25)
	if got := g.Value(); got != -3.25 {
		t.Fatalf("Value = %g, want -3.25", got)
	}
}

func TestHistogramBucketBounds(t *testing.T) {
	for i := 0; i < histBuckets; i++ {
		lo, hi := BucketLower(i), BucketUpper(i)
		if lo > hi {
			t.Fatalf("bucket %d: lower %d > upper %d", i, lo, hi)
		}
		if bucketOf(lo) != i {
			t.Fatalf("bucketOf(lower %d) = %d, want %d", lo, bucketOf(lo), i)
		}
		if i < histBuckets-1 && bucketOf(hi) != i {
			t.Fatalf("bucketOf(upper %d) = %d, want %d", hi, bucketOf(hi), i)
		}
	}
	if bucketOf(histMaxObserve) != histBuckets-1 {
		t.Fatalf("clamp limit not in last bucket")
	}
}

// TestHistogramMatchesStats feeds an identical observation stream to a
// telemetry histogram and to internal/stats, then cross-validates: the
// mean must agree exactly (the histogram tracks the exact sum) and every
// quantile estimate must land within the log2 bucket containing the
// exact percentile.
func TestHistogramMatchesStats(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("examined")
	var sum stats.Summary
	var raw []float64
	src := rng.New(42)
	for i := 0; i < 20000; i++ {
		// Mimic examined-per-packet counts: mostly small, heavy tail.
		v := uint64(src.TruncExp(8, 4000))
		h.Observe(v)
		sum.Add(float64(v))
		raw = append(raw, float64(v))
	}
	snap := h.Snapshot()
	if snap.Count != uint64(sum.N()) {
		t.Fatalf("count %d != %d", snap.Count, sum.N())
	}
	if math.Abs(snap.Mean()-sum.Mean()) > 1e-9 {
		t.Fatalf("mean %g != exact %g", snap.Mean(), sum.Mean())
	}
	if snap.Max != uint64(sum.Max()) {
		t.Fatalf("max %d != exact %g", snap.Max, sum.Max())
	}
	sort.Float64s(raw)
	for _, p := range []float64{50, 90, 99} {
		exact := stats.Percentile(raw, p)
		est := snap.Percentile(p)
		// The estimate must be inside the bucket containing the exact
		// percentile, or an adjacent one (ties at bucket edges).
		b := bucketOf(uint64(exact))
		lo := float64(BucketLower(max(0, b-1)))
		hi := float64(BucketUpper(min(histBuckets-1, b+1)))
		if est < lo || est > hi {
			t.Fatalf("p%.0f estimate %g outside buckets around exact %g [%g,%g]",
				p, est, exact, lo, hi)
		}
	}
}

func TestHistogramClampsLargeValues(t *testing.T) {
	h := NewRegistry().Histogram("x")
	h.Observe(1 << 40)
	snap := h.Snapshot()
	if snap.Sum != histMaxObserve || snap.Max != histMaxObserve {
		t.Fatalf("clamp failed: sum %d max %d", snap.Sum, snap.Max)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	build := func() Snapshot {
		r := NewRegistry()
		r.Counter("z_total").Inc()
		r.Counter("a_total", L("d", "two")).Add(2)
		r.Counter("a_total", L("d", "one")).Add(1)
		r.Gauge("skew").Set(1.25)
		r.Histogram("h", L("d", "one")).Observe(5)
		r.Histogram("h", L("d", "one")).Observe(9)
		return r.Snapshot()
	}
	var b1, b2 bytes.Buffer
	if err := build().WritePrometheus(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatalf("two identical builds rendered differently:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	// Label-set ordering inside one name must be canonical.
	one := strings.Index(b1.String(), `a_total{d="one"}`)
	two := strings.Index(b1.String(), `a_total{d="two"}`)
	if one == -1 || two == -1 || one > two {
		t.Fatalf("counter series out of canonical order:\n%s", b1.String())
	}
}

// parsePromText is a minimal Prometheus text-format check: every
// non-comment line must be `series value` with a numeric value, every
// comment must be a well-formed # TYPE line, and histogram _count must
// equal the +Inf bucket.
func parsePromText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	series := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			parts := strings.Fields(line)
			if len(parts) != 4 || parts[1] != "TYPE" {
				t.Fatalf("malformed comment line %q", line)
			}
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		var v float64
		if _, err := fmt.Sscanf(line[i+1:], "%g", &v); err != nil {
			t.Fatalf("non-numeric value in %q: %v", line, err)
		}
		series[line[:i]] = v
	}
	return series
}

func TestWritePrometheusParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("demux_misses_total", L("discipline", "sequent")).Add(7)
	r.Gauge("overload_chain_skew", L("table", "t")).Set(2.5)
	h := r.Histogram("demux_examined_pcbs", L("discipline", "sequent"))
	for v := uint64(0); v < 100; v++ {
		h.Observe(v)
	}
	var b bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	series := parsePromText(t, b.String())
	if series[`demux_misses_total{discipline="sequent"}`] != 7 {
		t.Fatalf("counter sample missing:\n%s", b.String())
	}
	inf := series[`demux_examined_pcbs_bucket{discipline="sequent",le="+Inf"}`]
	count := series[`demux_examined_pcbs_count{discipline="sequent"}`]
	if inf != 100 || count != 100 {
		t.Fatalf("+Inf bucket %g and _count %g must both be 100", inf, count)
	}
}

func TestWriteJSONIncludesPercentiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	for v := uint64(1); v <= 64; v++ {
		h.Observe(v)
	}
	var b bytes.Buffer
	if err := r.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"p50"`, `"p90"`, `"p99"`, `"mean"`} {
		if !strings.Contains(b.String(), key) {
			t.Fatalf("JSON missing %s:\n%s", key, b.String())
		}
	}
}

func TestWriteSummaryTable(t *testing.T) {
	r := NewRegistry()
	r.Counter("engine_cookies_sent_total").Add(3)
	r.Histogram("demux_examined_pcbs", L("discipline", "x")).Observe(4)
	var b bytes.Buffer
	if err := r.Snapshot().WriteSummary(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"COUNTER", "HISTOGRAM", "engine_cookies_sent_total", "P99"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestRegistryConcurrentSnapshot exercises concurrent writers against a
// concurrent snapshotter under -race, and checks the final fold is
// exact once the writers drain.
func TestRegistryConcurrentSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	h := r.Histogram("h")
	g := r.Gauge("g")
	const workers, each = 8, 5000
	var writers, snapper sync.WaitGroup
	stop := make(chan struct{})
	snapper.Add(1)
	go func() {
		defer snapper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Snapshot()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < each; i++ {
				c.Inc()
				h.Observe(uint64(i & 1023))
				g.Set(float64(w))
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	snapper.Wait()
	snap := r.Snapshot()
	wantN := uint64(workers * each)
	if got := c.Value(); got != wantN {
		t.Fatalf("counter %d, want %d", got, wantN)
	}
	if snap.Histograms[0].Count != wantN {
		t.Fatalf("hist count %d, want %d", snap.Histograms[0].Count, wantN)
	}
}
