package core

import (
	"fmt"

	"tcpdemux/internal/hashfn"
	"tcpdemux/internal/rng"
)

// DefaultMaxLoad is AutoSequent's occupancy threshold: the table doubles
// its chain count when the average chain would exceed this many PCBs. Ten
// keeps the expected scan near (10+1)/2 ≈ 5.5 examinations — the
// "insignificant fraction of the other packet-reception overheads" regime
// §3.5 describes.
const DefaultMaxLoad = 10.0

// The chain-skew watchdog's parameters. No caller ever ran it with other
// values, so they are constants.
const (
	// skewFactor trips the watchdog when a chain holds more than this
	// multiple of the mean chain length: a healthy keyed hash stays under
	// ~3x the mean even at modest populations, while a collision attack
	// concentrates essentially everything on one chain.
	skewFactor = 8
	// minPopulation suppresses the watchdog below this many chained PCBs;
	// tiny tables are legitimately lumpy.
	minPopulation = 64
)

// skewed reports whether a chain of n PCBs trips the watchdog in a table
// of pop chained PCBs over h chains: pop is at least minPopulation and n
// exceeds skewFactor times the mean chain length, a mean taken as at least
// one PCB. Without that floor a sparse table trips on its first two-PCB
// chain (64 PCBs on 512 chains put the line at 8 × 0.125 = 1), and a
// chain of eight costs less than the scan the watchdog exists to stop.
func skewed(n, pop, h int) bool {
	return pop >= minPopulation && n*h > skewFactor*max(pop, h)
}

// AutoSequent automates the §3.5 sizing knob: it is the Sequent hashed
// demultiplexer with the chain count doubled (and every PCB rehashed)
// whenever the average load N/H crosses DefaultMaxLoad, so the expected
// lookup cost stays bounded as the connection population grows — the
// paper's "the system administrator may increase the value of H" turned
// into what modern stacks do automatically.
//
// It also defends §3.5's assumption that the hash spreads connections
// evenly. An adversary who knows the hash can synthesize tuples that all
// land on one chain (hashfn.AttackPopulation), degrading every lookup to
// the BSD list scan. A chain-skew watchdog flags a chain holding more
// than skewFactor times the mean (skewed), and a trip rekeys the table in
// one pass under a fresh secret SipHash key drawn from the table's seeded
// source, so the attacker must re-derive a placement it cannot see. The
// watchdog costs O(1) an insert and allocates nothing: the mean only
// rises on insert, so only the chain that just grew can newly cross the
// line. The mean falls only on removal and growth, so every H-th removal
// and every growth reads all chain lengths in place; lookups cannot
// change the skew and are never sampled.
//
// Rehashing cost is real and accounted: RehashExaminations counts the PCB
// touches spent moving entries, Rehashes the number of rebuilds (growth
// and rekeys alike), and Rekeys the rekeys. Amortized over the inserts
// that triggered them, growth adds O(1) touches per insert.
type AutoSequent struct {
	inner *SequentHash
	hash  hashfn.Func
	// src draws the watchdog's replacement keys.
	src *rng.Source
	// removals counts removals since the last full skew check.
	removals int

	// Rehashes counts rebuilds: growth events and rekeys.
	Rehashes int
	// Rekeys counts rekeys, the watchdog's and Rekey's callers' alike.
	Rekeys int
	// RehashExaminations counts PCB moves performed by rebuilds.
	RehashExaminations uint64
}

// NewAutoSequent returns an auto-resizing table starting at startChains
// (DefaultChains if <= 0) with hash fn (multiplicative if nil). Every
// watchdog rekey draws its key from seed's stream, so runs are
// deterministic per seed while chain placement stays unpredictable to a
// seed-blind adversary.
func NewAutoSequent(startChains int, fn hashfn.Func, seed uint64) *AutoSequent {
	if fn == nil {
		fn = hashfn.Multiplicative{}
	}
	return &AutoSequent{inner: NewSequentHash(startChains, fn), hash: fn, src: rng.New(seed)}
}

// Name implements Demuxer.
func (d *AutoSequent) Name() string {
	return fmt.Sprintf("auto-sequent-%d", d.inner.NumChains())
}

// NumChains returns the current chain count.
func (d *AutoSequent) NumChains() int { return d.inner.NumChains() }

// Insert implements Demuxer, growing the table first if the new PCB would
// push the average chain load past the threshold, and rekeying it after
// if the PCB's chain trips the watchdog.
func (d *AutoSequent) Insert(p *PCB) error {
	grew := false
	if !p.Key.IsWildcard() {
		// Listeners live on a side list and do not load the chains.
		if float64(d.inner.chained+1) > DefaultMaxLoad*float64(d.inner.NumChains()) {
			d.rebuild(d.inner.NumChains() * 2)
			grew = true
		}
	}
	n, err := d.inner.insert(p)
	if err != nil {
		return err
	}
	if grew {
		n = d.inner.fullest()
	}
	d.watch(n)
	return nil
}

// watch rekeys the table if a chain of n PCBs trips the watchdog. The
// attacker's population was built against the old placement, and without
// the new key it cannot aim at the new one.
func (d *AutoSequent) watch(n int) {
	if skewed(n, d.inner.chained, d.inner.NumChains()) {
		d.Rekey(hashfn.KeyedFromRNG(d.src))
	}
}

// Rekey rehashes every PCB under fn in one pass, keeping the chain count;
// later growth keeps fn too. The pause is one rebuild
// (BenchmarkAutoSequentRekey).
func (d *AutoSequent) Rekey(fn hashfn.Func) {
	d.hash = fn
	d.rebuild(d.inner.NumChains())
	d.Rekeys++
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
	d.removals = 0
	d.Rehashes++
}

// Remove implements Demuxer. The table never shrinks — matching the
// kernel-table convention that memory, once justified, is kept. Every
// H-th removal reads all chain lengths: H removals lower the mean by at
// most one PCB, so a skew the falling mean uncovers is caught within
// skewFactor PCBs of the line.
func (d *AutoSequent) Remove(k Key) bool {
	if !d.inner.Remove(k) {
		return false
	}
	if d.removals++; d.removals >= d.inner.NumChains() {
		d.removals = 0
		d.watch(d.inner.fullest())
	}
	return true
}

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

// Skew returns the fullest chain's population over the mean chain
// population, 0 for a table with no chained PCB: the ratio the watchdog
// keeps at or below skewFactor.
func (d *AutoSequent) Skew() float64 {
	if d.inner.chained == 0 {
		return 0
	}
	return float64(d.inner.fullest()) / (float64(d.inner.chained) / float64(d.inner.NumChains()))
}

// Walk implements Demuxer.
func (d *AutoSequent) Walk(fn func(*PCB) bool) { d.inner.Walk(fn) }
