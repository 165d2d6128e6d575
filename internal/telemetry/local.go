package telemetry

import (
	"tcpdemux/internal/core"
)

// Outcome indices into DemuxMetrics' per-outcome histograms, shared by
// the shared-wrapper and local-observer paths.
const (
	outcomeHit = iota
	outcomeFound
	outcomeMiss
	outcomeWildcard
	outcomeCount
)

// localCells flattens the (outcome, bucket) grid and pads it to a power
// of two, so the hot path can mask the cell index instead of paying a
// bounds check.
const localCells = 128

// LocalDemux is the single-writer instrumentation tier: a per-goroutine
// wrapper that accumulates lookup observations with plain (non-atomic)
// adds into private memory and folds them into the shared DemuxMetrics
// histograms on Flush. This is the per-CPU-counter idiom: even an
// uncontended LOCK-prefixed add costs ~10ns on commodity hardware —
// more than the whole 5% overhead budget for a ~120ns lookup — while a
// plain add into a private cache line costs under a nanosecond.
//
// The contract is exactly single-writer: each LocalDemux belongs to one
// goroutine, and Flush must be called by that same goroutine (typically
// deferred at worker exit) before anyone reads the shared histograms.
// The wrapped inner table — promoted through the embedded core.Table, so
// only Lookup is written out here — may be a shared
// core.Concurrent or a worker's private core.Demuxer; only the
// observation state is private. For cross-goroutine wrappers or flight
// recording, use InstrumentConcurrent instead.
type LocalDemux struct {
	core.Table
	m *DemuxMetrics
	// The observation buffers belong to the owning goroutine's localtier
	// role: only observe (the accumulate path) and Flush (the drain path)
	// may touch them, which demuxvet's singlewriter analyzer enforces.
	counts [localCells]uint64   //demux:singlewriter(owner=localtier)
	sums   [localCells]uint64   //demux:singlewriter(owner=localtier)
	max    [outcomeCount]uint64 //demux:singlewriter(owner=localtier)
}

// InstrumentLocal wraps inner with a private observation buffer folding
// into m on Flush.
func InstrumentLocal(inner core.Table, m *DemuxMetrics) *LocalDemux {
	return &LocalDemux{Table: inner, m: m}
}

// observe folds one result into the private buffer: three plain adds,
// no atomics, no allocation.
//
//demux:hotpath
//demux:owner(localtier)
func (l *LocalDemux) observe(r core.Result) {
	o := outcomeFound
	switch {
	case r.PCB == nil:
		o = outcomeMiss
	case r.Wildcard:
		o = outcomeWildcard
	case r.CacheHit:
		o = outcomeHit
	}
	v := uint64(r.Examined)
	if v > histMaxObserve {
		v = histMaxObserve
	}
	c := uint32(o*histBuckets+bucketOf(v)) % localCells
	l.counts[c]++
	l.sums[c] += v
	if v > l.max[o] {
		l.max[o] = v
	}
}

// Flush folds the private buffer into the shared histograms (via their
// spill counters, which Snapshot already sums) and clears it. Totals
// are exact after every owner has flushed.
//
//demux:owner(localtier)
func (l *LocalDemux) Flush() {
	hs := [outcomeCount]*Histogram{
		outcomeHit:      l.m.hit,
		outcomeFound:    l.m.found,
		outcomeMiss:     l.m.miss,
		outcomeWildcard: l.m.wildcard,
	}
	for o, h := range hs {
		sl := &h.slots[stripeIdx(h.mask)]
		for b := 0; b < histBuckets; b++ {
			c := o*histBuckets + b
			if n := l.counts[c]; n != 0 {
				sl.spillCount[b].Add(n)
				sl.spillSum[b].Add(l.sums[c])
				l.counts[c], l.sums[c] = 0, 0
			}
		}
		if m := l.max[o]; m != 0 {
			sl.bumpMax(int64(m))
			l.max[o] = 0
		}
	}
}

// Lookup observes the inner table's result into the private buffer.
//
//demux:hotpath
func (l *LocalDemux) Lookup(k core.Key, dir core.Direction) core.Result {
	r := l.Table.Lookup(k, dir)
	l.observe(r)
	return r
}
