package telemetry

import (
	"math/bits"
	"sync/atomic"
)

// Histogram layout constants.
const (
	// histBuckets is the fixed bucket count: bucket 0 holds the value 0,
	// bucket i (i >= 1) holds [2^(i-1), 2^i - 1]. 28 buckets cover values
	// up to 2^27-1 exactly, with everything above clamped into the last
	// bucket — orders of magnitude beyond any examined-PCBs count this
	// repo produces.
	histBuckets = 28

	// histMaxObserve clamps observations; it is also the last bucket's
	// reported upper bound.
	histMaxObserve = uint64(1)<<32 - 1
)

// Histogram is a log2-bucketed histogram of uint64 observations (PCBs
// examined per packet, chain lengths): a count word and a sum word per
// bucket, and a running maximum. Observe is zero-alloc. A histogram's
// writer is the goroutine that owns what it measures; LocalDemux flushes
// from several workers may meet on one histogram, which is why every
// word is an atomic add and the maximum a compare-and-swap.
type Histogram struct {
	name   string
	labels []Label
	counts [histBuckets]atomic.Uint64
	sums   [histBuckets]atomic.Uint64
	max    atomic.Uint64
}

// Name returns the histogram's metric name.
func (h *Histogram) Name() string { return h.name }

// bucketOf maps a value to its log2 bucket index.
//
//demux:hotpath
func bucketOf(v uint64) int {
	b := bits.Len64(v)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// BucketUpper returns the inclusive upper bound of bucket i (the
// Prometheus "le" value); the final bucket reports the clamp limit.
func BucketUpper(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= histBuckets-1 {
		return histMaxObserve
	}
	return 1<<uint(i) - 1
}

// BucketLower returns the inclusive lower bound of bucket i.
func BucketLower(i int) uint64 {
	if i <= 0 {
		return 0
	}
	return 1 << uint(i-1)
}

// Observe records one value.
//
//demux:hotpath
func (h *Histogram) Observe(v uint64) {
	if v > histMaxObserve {
		v = histMaxObserve
	}
	b := bucketOf(v)
	h.counts[b].Add(1)
	h.sums[b].Add(v)
	h.bumpMax(v)
}

// bumpMax raises the running maximum to at least v. The common case is
// a single atomic load and a not-taken branch.
//
//demux:hotpath
func (h *Histogram) bumpMax(v uint64) {
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// HistogramSnapshot is one histogram's folded state at snapshot time.
type HistogramSnapshot struct {
	Name   string   `json:"name"`
	Labels []Label  `json:"labels,omitempty"`
	Count  uint64   `json:"count"`
	Sum    uint64   `json:"sum"`
	Max    uint64   `json:"max"`
	Bucket []uint64 `json:"buckets"`
}

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Name:   h.name,
		Labels: h.labels,
		Max:    h.max.Load(),
		Bucket: make([]uint64, histBuckets),
	}
	for b := range s.Bucket {
		s.Bucket[b] = h.counts[b].Load()
		s.Count += s.Bucket[b]
		s.Sum += h.sums[b].Load()
	}
	return s
}

// Mean returns the exact mean of all observations (the sum is tracked
// exactly, not reconstructed from buckets).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-th quantile (0 <= q <= 1) by linear
// interpolation within the containing log2 bucket. The estimate is
// always inside that bucket's [lower, upper] bounds, so its error is
// bounded by the bucket's factor-of-two width.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	if s.Count == 0 {
		return 0
	}
	target := q * float64(s.Count)
	cum := 0.0
	for i, c := range s.Bucket {
		next := cum + float64(c)
		if c > 0 && target <= next {
			lo, hi := float64(BucketLower(i)), float64(BucketUpper(i))
			frac := (target - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return float64(s.Max)
}

// Percentile is Quantile on the 0-100 scale.
func (s HistogramSnapshot) Percentile(p float64) float64 { return s.Quantile(p / 100) }
