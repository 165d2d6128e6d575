package core

import (
	"errors"
	"fmt"
	"slices"
)

// Errors returned by demuxer mutation methods.
var (
	// ErrDuplicateKey is returned by Insert when a PCB with the same key is
	// already present.
	ErrDuplicateKey = errors.New("core: PCB with this key already inserted")
)

// Result reports the outcome of one demultiplexing lookup.
type Result struct {
	// PCB is the best-matching PCB, or nil if no PCB matched.
	PCB *PCB
	// Examined is the number of PCBs the algorithm touched to produce this
	// result, including cache probes — the paper's figure of merit.
	Examined int
	// CacheHit reports whether a one-entry cache satisfied the lookup
	// without a list walk.
	CacheHit bool
	// Wildcard reports whether the match was a listener (wildcard) rather
	// than an exact connection match.
	Wildcard bool
}

// Demuxer locates the PCB for an inbound TCP segment. Implementations
// account the number of PCBs they examine per lookup, since moving PCBs
// between memory and the on-chip cache dominates lookup cost (paper §3).
//
// Implementations are not safe for concurrent use.
type Demuxer interface {
	Table

	// Stats returns the accumulated lookup statistics. The pointer stays
	// valid and live for the demuxer's lifetime.
	Stats() *Stats
}

// Stats accumulates per-demuxer lookup cost statistics.
type Stats struct {
	// Lookups is the total number of Lookup calls.
	Lookups uint64
	// Hits counts lookups satisfied by a one-entry cache.
	Hits uint64
	// Misses counts lookups that found no PCB at all.
	Misses uint64
	// WildcardHits counts lookups resolved to a listener.
	WildcardHits uint64
	// Examined is the total number of PCBs examined across all lookups.
	Examined uint64
	// MaxExamined is the largest single-lookup examination count.
	MaxExamined int
}

// Record folds one lookup result into the statistics, classifying it
// exactly as the built-in demuxers do. Exported for demultiplexers
// outside this package that keep their own Stats (flat's hopscotch
// table).
func (s *Stats) Record(r Result) { s.record(r) }

// record folds one lookup result into the statistics.
func (s *Stats) record(r Result) {
	s.Lookups++
	s.Examined += uint64(r.Examined)
	if r.Examined > s.MaxExamined {
		s.MaxExamined = r.Examined
	}
	switch {
	case r.PCB == nil:
		s.Misses++
	case r.CacheHit:
		s.Hits++
	}
	if r.PCB != nil && r.Wildcard {
		s.WildcardHits++
	}
}

// MeanExamined returns the average PCBs examined per lookup — directly
// comparable to the paper's C(N) expressions.
func (s *Stats) MeanExamined() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Examined) / float64(s.Lookups)
}

// HitRate returns the cache hit fraction.
func (s *Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// Reset zeroes the statistics (e.g. after simulation warm-up).
func (s *Stats) Reset() { *s = Stats{} }

// String summarizes the statistics.
func (s *Stats) String() string {
	return fmt.Sprintf("lookups=%d hits=%d (%.2f%%) misses=%d mean-examined=%.2f max=%d",
		s.Lookups, s.Hits, s.HitRate()*100, s.Misses, s.MeanExamined(), s.MaxExamined)
}

// entry is one list slot: the PCB's key held inline beside the PCB, so a
// scan compares keys in a contiguous array and dereferences a PCB only to
// return it. 24 bytes: Key (12) + padding (4) + pointer (8).
type entry struct {
	key Key
	pcb *PCB
}

// list is the PCB list the list-based algorithms share: BSDList, MTFList,
// SRCache, every hash chain and every listen list. The front of the list
// is the end of the slice, so pushing a PCB to the front is an append;
// front insertion keeps the BSD property that young connections sit near
// the front. The zero value is an empty list.
type list []entry

// pushFront inserts a PCB at the front. A full list grows by a quarter,
// rounded up to the allocator's size class: append would double a short
// hash chain's array, putting 3 entries in 4 slots.
func (l *list) pushFront(p *PCB) {
	if n := len(*l); n == cap(*l) {
		*l = append(slices.Grow(list(nil), n+n/4+1), *l...)
	}
	*l = append(*l, entry{key: p.Key, pcb: p})
}

// find returns the index of the entry with exactly key k, searching from
// the front, or -1. Remote port and address are compared first: the
// connections to one service share the local half.
func (l list) find(k Key) int {
	for i := len(l) - 1; i >= 0; i-- {
		e := &l[i].key
		if e.RemotePort == k.RemotePort && e.RemoteAddr == k.RemoteAddr &&
			e.LocalPort == k.LocalPort && e.LocalAddr == k.LocalAddr {
			return i
		}
	}
	return -1
}

// remove deletes the entry with exactly key k, returning its PCB.
func (l *list) remove(k Key) *PCB { return l.removeAt(l.find(k)) }

// removeAt deletes entry i, returning its PCB; i < 0 deletes nothing.
func (l *list) removeAt(i int) *PCB {
	if i < 0 {
		return nil
	}
	p := (*l)[i].pcb
	*l = slices.Delete(*l, i, i+1)
	return p
}

// toFront moves entry i to the front, keeping the others in order. After
// an exact scan that examined e entries, the match is at len(l)-e.
func (l list) toFront(i int) {
	e := l[i]
	copy(l[i:], l[i+1:])
	l[len(l)-1] = e
}

// scan looks for the best match for packet key k, as the historic
// in_pcblookup does: the first exact match from the front wins, and
// failing that the first best-scoring wildcard. Only an exact packet key
// can match a PCB exactly, and then the match is key equality, so that
// case is a find; a miss walks Match over the whole list. It returns the
// best PCB (nil if none), the number of entries examined, and whether the
// match was exact.
func (l list) scan(k Key) (best *PCB, examined int, exact bool) {
	if !k.IsWildcard() {
		if i := l.find(k); i >= 0 {
			return l[i].pcb, len(l) - i, true
		}
	}
	return l.scanMatch(k)
}

// scanMatch is scan's wildcard and miss path: it walks Match over the
// whole list and returns the first best-scoring entry from the front.
func (l list) scanMatch(k Key) (best *PCB, examined int, exact bool) {
	bestScore := -1
	for i := len(l) - 1; i >= 0; i-- {
		if score := Match(l[i].key, k); score > bestScore {
			bestScore = score
			best = l[i].pcb
		}
	}
	return best, len(l), false
}

// containsExact reports whether a PCB with exactly key k is present.
func (l list) containsExact(k Key) bool { return l.find(k) >= 0 }

// walk calls fn for every PCB from the front until fn returns false,
// reporting whether it ran to the end.
func (l list) walk(fn func(*PCB) bool) bool {
	for i := len(l) - 1; i >= 0; i-- {
		if !fn(l[i].pcb) {
			return false
		}
	}
	return true
}
