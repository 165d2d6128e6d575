package core

import (
	"fmt"

	"tcpdemux/internal/hashfn"
)

// DefaultMaxLoad is AutoSequent's occupancy threshold: the table doubles
// its chain count when the average chain would exceed this many PCBs. Ten
// keeps the expected scan near (10+1)/2 ≈ 5.5 examinations — the
// "insignificant fraction of the other packet-reception overheads" regime
// §3.5 describes.
const DefaultMaxLoad = 10.0

// AutoSequent automates the §3.5 sizing knob: it is the Sequent hashed
// demultiplexer with the chain count doubled (and every PCB rehashed)
// whenever the average load N/H crosses DefaultMaxLoad, so the expected
// lookup cost stays bounded as the connection population grows — the
// paper's "the system administrator may increase the value of H" turned
// into what modern stacks do automatically. Rekey rebuilds it under a new
// hash function at the same chain count.
//
// Rehashing cost is real and accounted: RehashExaminations counts the PCB
// touches spent moving entries, and Rehashes the number of rebuilds
// (growth and Rekey alike). Amortized over the inserts that triggered
// them, growth adds O(1) touches per insert.
type AutoSequent struct {
	inner *SequentHash
	hash  hashfn.Func

	// Rehashes counts rebuilds: growth events and rekeys.
	Rehashes int
	// RehashExaminations counts PCB moves performed by rebuilds.
	RehashExaminations uint64
}

// NewAutoSequent returns an auto-resizing table starting at startChains
// (DefaultChains if <= 0) with hash fn (multiplicative if nil).
func NewAutoSequent(startChains int, fn hashfn.Func) *AutoSequent {
	if fn == nil {
		fn = hashfn.Multiplicative{}
	}
	return &AutoSequent{inner: NewSequentHash(startChains, fn), hash: fn}
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
		if float64(chainPop+1) > DefaultMaxLoad*float64(d.inner.NumChains()) {
			d.rebuild(d.inner.NumChains() * 2)
		}
	}
	return d.inner.Insert(p)
}

// Rekey rehashes every PCB under fn in one pass, keeping the chain count;
// later growth keeps fn too. The pause is one rebuild
// (BenchmarkAutoSequentRekey).
func (d *AutoSequent) Rekey(fn hashfn.Func) {
	d.hash = fn
	d.rebuild(d.inner.NumChains())
}

// rebuild moves every PCB into a fresh table of the given chain count
// under d.hash. Chain caches are deliberately not carried over: after a
// rehash their per-chain affinity is void anyway.
func (d *AutoSequent) rebuild(chains int) {
	old := d.inner
	fresh := NewSequentHash(chains, d.hash)
	// Share the statistics object across the rebuild so pointers handed
	// out by Stats() stay live.
	fresh.stats = old.stats
	old.Walk(func(p *PCB) bool {
		d.RehashExaminations++
		// Keys are unique in the old table, so Insert cannot fail.
		if err := fresh.Insert(p); err != nil {
			panic("core: AutoSequent rehash found duplicate key: " + err.Error())
		}
		return true
	})
	d.inner = fresh
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
