package core

import (
	"fmt"

	"tcpdemux/internal/hashfn"
)

// DefaultMaxLoad is AutoSequent's default occupancy threshold: the table
// doubles its chain count when the average chain would exceed this many
// PCBs. Ten keeps the expected scan near (10+1)/2 ≈ 5.5 examinations — the
// "insignificant fraction of the other packet-reception overheads" regime
// §3.5 describes.
const DefaultMaxLoad = 10.0

// AutoSequent automates the §3.5 sizing knob: it is the Sequent hashed
// demultiplexer with the chain count doubled (and every PCB rehashed)
// whenever the average load N/H crosses a threshold, so the expected
// lookup cost stays bounded as the connection population grows — the
// paper's "the system administrator may increase the value of H" turned
// into what modern stacks do automatically.
//
// Rehashing cost is real and accounted: RehashExaminations counts the PCB
// touches spent moving entries, and Rehashes the number of growth events.
// Amortized over the inserts that triggered them, growth adds O(1) touches
// per insert.
type AutoSequent struct {
	inner   *SequentHash
	hash    hashfn.Func
	maxLoad float64

	// Rehashes counts growth events.
	Rehashes int
	// RehashExaminations counts PCB moves performed by growth events.
	RehashExaminations uint64
}

// NewAutoSequent returns an auto-resizing table starting at startChains
// (DefaultChains if <= 0) with the given occupancy threshold
// (DefaultMaxLoad if <= 0) and hash (multiplicative if nil).
func NewAutoSequent(startChains int, maxLoad float64, fn hashfn.Func) *AutoSequent {
	if maxLoad <= 0 {
		maxLoad = DefaultMaxLoad
	}
	if fn == nil {
		fn = hashfn.Multiplicative{}
	}
	return &AutoSequent{inner: NewSequentHash(startChains, fn), hash: fn, maxLoad: maxLoad}
}

// Name implements Demuxer.
func (d *AutoSequent) Name() string {
	return fmt.Sprintf("auto-sequent-%d", d.inner.NumChains())
}

// NumChains returns the current chain count.
func (d *AutoSequent) NumChains() int { return d.inner.NumChains() }

// Insert implements Demuxer, growing the table first if the new PCB would
// push the average chain load past the threshold.
func (d *AutoSequent) Insert(p *PCB) error {
	if !p.Key.IsWildcard() {
		// Listeners live on a side list and do not load the chains.
		chainPop := d.inner.Len() - len(d.inner.listen)
		if float64(chainPop+1) > d.maxLoad*float64(d.inner.NumChains()) {
			d.grow()
		}
	}
	return d.inner.Insert(p)
}

// grow doubles the chain count and rehashes every chained PCB. Chain
// caches are deliberately not carried over: after a rehash their
// per-chain affinity is void anyway.
func (d *AutoSequent) grow() {
	old := d.inner
	bigger := NewSequentHash(old.NumChains()*2, d.hash)
	// Share the statistics object across the migration so pointers handed
	// out by Stats() stay live.
	bigger.stats = old.stats
	old.Walk(func(p *PCB) bool {
		d.RehashExaminations++
		// Keys are unique in the old table, so Insert cannot fail.
		if err := bigger.Insert(p); err != nil {
			panic("core: AutoSequent rehash found duplicate key: " + err.Error())
		}
		return true
	})
	d.inner = bigger
	d.Rehashes++
}

// Remove implements Demuxer. The table never shrinks — matching the
// kernel-table convention that memory, once justified, is kept.
func (d *AutoSequent) Remove(k Key) bool { return d.inner.Remove(k) }

// Lookup implements Demuxer.
//
//demux:hotpath
func (d *AutoSequent) Lookup(k Key, dir Direction) Result { return d.inner.Lookup(k, dir) }

// NotifySend implements Demuxer.
func (d *AutoSequent) NotifySend(p *PCB) { d.inner.NotifySend(p) }

// Len implements Demuxer.
func (d *AutoSequent) Len() int { return d.inner.Len() }

// Stats implements Demuxer.
func (d *AutoSequent) Stats() *Stats { return d.inner.Stats() }

// ChainLengths exposes the current chain populations.
func (d *AutoSequent) ChainLengths() []int64 { return d.inner.ChainLengths() }

// Walk implements Demuxer.
func (d *AutoSequent) Walk(fn func(*PCB) bool) { d.inner.Walk(fn) }
