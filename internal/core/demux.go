package core

import (
	"errors"
	"fmt"
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
// exactly as the built-in demuxers do. Exported for wrapper demuxers —
// overload.Guarded probes two inner tables during an online rehash and
// must account each logical lookup once, in its own Stats, rather than
// inherit the per-table counts.
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

// node is the singly linked list cell shared by the list-based demuxers.
// Head insertion preserves the BSD property that young connections sit
// near the front.
type node struct {
	pcb  *PCB
	next *node
}

// list is a singly linked PCB list with the scan helpers the list-based
// algorithms share. The zero value is an empty list.
type list struct {
	head *node
	n    int
}

// pushFront inserts a PCB at the head.
func (l *list) pushFront(p *PCB) {
	l.head = &node{pcb: p, next: l.head}
	l.n++
}

// remove unlinks the node holding the PCB with exactly key k.
func (l *list) remove(k Key) *PCB {
	for cur, prev := l.head, (*node)(nil); cur != nil; prev, cur = cur, cur.next {
		if cur.pcb.Key == k {
			if prev == nil {
				l.head = cur.next
			} else {
				prev.next = cur.next
			}
			l.n--
			return cur.pcb
		}
	}
	return nil
}

// scan walks the list looking for the best match for packet key k. It
// stops at the first exact match; wildcard candidates force a full walk,
// exactly like the historic in_pcblookup. It returns the best PCB (nil if
// none), the number of nodes examined, and whether the match was exact.
func (l *list) scan(k Key) (best *PCB, examined int, exact bool) {
	bestScore := -1
	for cur := l.head; cur != nil; cur = cur.next {
		examined++
		score := Match(cur.pcb.Key, k)
		if score == exactScore {
			return cur.pcb, examined, true
		}
		if score > bestScore {
			bestScore = score
			best = cur.pcb
		}
	}
	return best, examined, false
}

// containsExact reports whether a PCB with exactly key k is present.
func (l *list) containsExact(k Key) bool {
	for cur := l.head; cur != nil; cur = cur.next {
		if cur.pcb.Key == k {
			return true
		}
	}
	return false
}

// walkList is the shared Walk helper for the list-based structures.
func (l *list) walk(fn func(*PCB) bool) bool {
	for cur := l.head; cur != nil; cur = cur.next {
		if !fn(cur.pcb) {
			return false
		}
	}
	return true
}
