// Package stripestat provides the striped, cache-line-padded statistics
// accumulator shared by the concurrent demultiplexers: the rcu package's
// lock-free Sequent table and the flat package's open-addressing tables
// both fold per-lookup core.Stats updates into per-goroutine-ish slots so
// the hot path never bounces a counter cache line between CPUs.
//
// The accumulator is exact in totals — every recorded lookup lands in
// exactly one slot — and heuristic only in spreading. Fold sums the slots
// into one core.Stats snapshot; a snapshot taken while lookups are in
// flight is consistent per counter but cross-field identities may lag, as
// documented by core.Concurrent's snapshot contract.
package stripestat

import (
	"runtime"
	"sync/atomic"
	"unsafe"

	"tcpdemux/internal/core"
)

// slot is one padded bundle of statistics counters. The layout keeps each
// slot on its own cache-line region (two 64-byte lines) so goroutines
// folding statistics into different slots never share a line — the same
// false-sharing guard parallel.ShardedSequent applies to its per-shard
// counters, here decoupled from the table entirely.
//
// The two counters every lookup must bump — lookups and examined PCBs —
// share one word (lookups in the top 24 bits, examined in the low 40) so
// the fast path pays a single atomic add; drain moves the word into the
// 64-bit spill counters long before either field can wrap. The remaining
// counters are bumped only on their (rarer) paths.
type slot struct {
	packed        atomic.Uint64 //demux:atomic
	spillLookups  atomic.Uint64 //demux:atomic
	spillExamined atomic.Uint64 //demux:atomic
	hits          atomic.Uint64 //demux:atomic
	misses        atomic.Uint64 //demux:atomic
	wildcardHits  atomic.Uint64 //demux:atomic
	maxExamined   atomic.Int64  //demux:atomic

	_ [72]byte
}

const (
	packShift = 40 // lookups above this bit, examined below
	packMask  = 1<<packShift - 1
	// drainAt triggers a drain once the packed lookup count reaches 2^22,
	// a factor 4 before the 24-bit field wraps and (at <= 2^18 mean
	// examinations per lookup — a population far beyond any workload
	// here) far before the examined field wraps.
	drainAt = uint64(1) << 62
)

// add folds one batch of (lookups, examined) with a single atomic add.
//
//demux:hotpath
func (sl *slot) add(lookups, examined uint64) {
	v := sl.packed.Add(lookups<<packShift + examined)
	if v >= drainAt {
		// Only the CAS winner transfers v; a racer's CAS fails harmlessly
		// and the next add re-triggers. Between the threshold and a
		// successful drain the field has 2^22 lookups of headroom.
		if sl.packed.CompareAndSwap(v, 0) {
			sl.spillLookups.Add(v >> packShift)
			sl.spillExamined.Add(v & packMask)
		}
	}
}

// bumpMax raises the slot's running maximum to at least v.
//
//demux:hotpath
func (sl *slot) bumpMax(v int64) {
	for {
		cur := sl.maxExamined.Load()
		if v <= cur || sl.maxExamined.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Stripes is the striped statistics accumulator: a power-of-two array of
// slots, one (ideally) per P. The zero value is not usable; call Init.
type Stripes struct {
	slots []slot
	mask  uint32
}

// Init sizes the stripe array to the next power of two covering
// 4×GOMAXPROCS, bounding the collision probability of the per-goroutine
// hash without making Fold sum an unbounded array.
func (s *Stripes) Init() {
	n := 1
	for n < 4*runtime.GOMAXPROCS(0) {
		n <<= 1
	}
	s.slots = make([]slot, n)
	s.mask = uint32(n - 1)
}

// slot picks the stripe for the calling goroutine. Go offers no portable
// P or goroutine identifier, so this hashes the address of a stack-local
// marker: goroutines occupy distinct stacks, which spreads concurrent
// recorders across slots and is stable for a goroutine between stack
// moves. The uintptr is used only as hash input, never converted back to
// a pointer. Correctness never depends on the spreading — any goroutine
// may fold into any slot — only contention does.
//
//demux:hotpath
func (s *Stripes) slot() *slot {
	var marker byte
	p := uintptr(unsafe.Pointer(&marker))
	h := uint32((p >> 6) ^ (p >> 16))
	return &s.slots[h&s.mask]
}

// Record folds one lookup result into the calling goroutine's stripe with
// the same classification rules as core.Stats.Record.
//
//demux:hotpath
func (s *Stripes) Record(r core.Result) {
	sl := s.slot()
	sl.add(1, uint64(r.Examined))
	switch {
	case r.PCB == nil:
		sl.misses.Add(1)
	case r.CacheHit:
		sl.hits.Add(1)
	}
	if r.PCB != nil && r.Wildcard {
		sl.wildcardHits.Add(1)
	}
	sl.bumpMax(int64(r.Examined))
}

// RecordBatch folds a pre-accumulated batch of lookups in one shot — the
// batched lookup paths count locally (core.Stats.Record into a
// train-local Stats) and pay these atomic adds once per train instead of
// once per packet.
//
//demux:hotpath
func (s *Stripes) RecordBatch(st core.Stats) {
	if st.Lookups == 0 {
		return
	}
	sl := s.slot()
	sl.add(st.Lookups, st.Examined)
	if st.Misses != 0 {
		sl.misses.Add(st.Misses)
	}
	if st.Hits != 0 {
		sl.hits.Add(st.Hits)
	}
	if st.WildcardHits != 0 {
		sl.wildcardHits.Add(st.WildcardHits)
	}
	sl.bumpMax(int64(st.MaxExamined))
}

// Fold sums every stripe into one core.Stats snapshot.
func (s *Stripes) Fold() core.Stats {
	var st core.Stats
	for i := range s.slots {
		sl := &s.slots[i]
		// Load the spill counters before re-reading packed. A drain in
		// slot.add runs CAS(packed→0) first and adds to the spills second,
		// so reading packed first could observe the pre-drain word and
		// then spills that already include that same word — a transient
		// double count of up to 2^22 lookups. In this order a drain landing
		// between the loads makes the word visible in neither counter for
		// one snapshot (a lag the snapshot contract permits), never twice.
		spillL := sl.spillLookups.Load()
		spillE := sl.spillExamined.Load()
		v := sl.packed.Load()
		st.Lookups += spillL + v>>packShift
		st.Examined += spillE + v&packMask
		st.Hits += sl.hits.Load()
		st.Misses += sl.misses.Load()
		st.WildcardHits += sl.wildcardHits.Load()
		if m := int(sl.maxExamined.Load()); m > st.MaxExamined {
			st.MaxExamined = m
		}
	}
	return st
}
