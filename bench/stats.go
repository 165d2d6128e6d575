package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// usage is the process's resource consumption at one instant, or over a
// window once subtracted.
type usage struct {
	cpu     time.Duration // user + system, from getrusage
	mallocs uint64
	gcs     uint32
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		gcs:     ms.NumGC,
	}
}

func (u usage) sub(v usage) usage {
	return usage{cpu: u.cpu - v.cpu, mallocs: u.mallocs - v.mallocs, gcs: u.gcs - v.gcs}
}

// residentBytes is the memory the set-up holds on to: live heap plus
// goroutine stacks, after a collection.
func residentBytes() float64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's finalizers released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc + ms.StackInuse)
}

// calibrate times a fixed arithmetic loop. It measures the host, not
// the program: a run whose calibration differs from another's was made
// on a faster or slower machine, or a busier one.
func calibrate() float64 {
	const n = 20_000_000
	x := uint64(88172645463325252)
	start := time.Now()
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	el := time.Since(start)
	sink = x
	return float64(el.Nanoseconds()) / n
}

var sink uint64

// sliceLen is the stretch a measured window is cut into.
const sliceLen = 100 * time.Millisecond

// fastestShare is the share of a window's slices that stand for the
// window: the fastest quarter by transaction rate. Two things slow the
// program for a tenth of a second at a time, a shared host taking the
// processor away and the collector's mark phases, and between them they
// touch a third to a half of all slices; how many fall into a window is
// chance. Both only ever slow the program, so the fastest slices are the
// frame path's own speed. Their samples are pooled: one rate and one
// pair of percentiles over a few hundred milliseconds of undisturbed
// running, with no order statistic sitting on the edge between the
// disturbed slices and the others.
const fastestShare = 0.25

// slice is one stretch of a window: its latency samples and how long it
// lasted.
type slice struct {
	lat  []uint32
	secs float64
}

func (sl slice) rate() float64 { return float64(len(sl.lat)) / sl.secs }

// slicer collects a window's latency samples and cuts them into slices.
type slicer struct {
	lat   []uint32
	ends  []int     // ends[k] is the index in lat one past slice k's last sample
	secs  []float64 // secs[k] is how long slice k lasted
	since time.Time // when the current slice began
}

// reset starts a new window, keeping the sample buffer's capacity.
func (s *slicer) reset(now time.Time) {
	s.lat, s.ends, s.secs, s.since = s.lat[:0], s.ends[:0], s.secs[:0], now
}

// add records one transaction that took ns and completed at now.
func (s *slicer) add(ns time.Duration, now time.Time) {
	s.lat = append(s.lat, uint32(ns))
	if d := now.Sub(s.since); d >= sliceLen {
		s.ends = append(s.ends, len(s.lat))
		s.secs = append(s.secs, d.Seconds())
		s.since = now
	}
}

// slices returns the window's complete slices. A window too short for
// one is a slice by itself.
func (s *slicer) slices(windowSecs float64) []slice {
	if len(s.ends) == 0 {
		return []slice{{s.lat, windowSecs}}
	}
	out := make([]slice, len(s.ends))
	from := 0
	for k, end := range s.ends {
		out[k] = slice{s.lat[from:end], s.secs[k]}
		from = end
	}
	return out
}

// fastest pools the fastest quarter of the slices and returns the
// pooled rate and the pooled samples, sorted.
func fastest(slices []slice) (rate float64, lat []uint32) {
	byRate := append([]slice(nil), slices...)
	sort.Slice(byRate, func(i, j int) bool { return byRate[i].rate() > byRate[j].rate() })
	byRate = byRate[:max(1, int(fastestShare*float64(len(byRate))))]
	var secs float64
	for _, sl := range byRate {
		lat = append(lat, sl.lat...)
		secs += sl.secs
	}
	sortLat(lat)
	return float64(len(lat)) / secs, lat
}

// sliceStats are the per-slice figures of one window, one entry a slice,
// kept in the result file so that a run's noise can be looked at after
// the fact.
type sliceStats struct {
	Rates []float64 `json:"txn_per_s"`
	P50s  []float64 `json:"p50_us"`
	P99s  []float64 `json:"p99_us"`
}

// perSlice sorts each slice's samples and returns its figures.
func perSlice(slices []slice) sliceStats {
	var st sliceStats
	for _, sl := range slices {
		sortLat(sl.lat)
		st.Rates = append(st.Rates, sl.rate())
		st.P50s = append(st.P50s, percentile(sl.lat, 0.50))
		st.P99s = append(st.P99s, percentile(sl.lat, 0.99))
	}
	return st
}

// percentile returns the p-quantile (0..1) of sorted latencies, in µs.
func percentile(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / 1e3
}

// tail is the highest percentile that still has at least ten samples
// beyond it, and the latency there.
func tail(sorted []uint32) (pct, us float64) {
	n := len(sorted)
	if n <= 10 {
		return 0, 0
	}
	return 100 * float64(n-11) / float64(n), float64(sorted[n-11]) / 1e3
}

func sortLat(lat []uint32) {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
}

// median of xs; the mean of the middle two when len(xs) is even.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
