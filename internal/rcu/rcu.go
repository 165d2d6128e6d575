// Package rcu implements the Sequent hashed PCB table with an RCU-style
// read-mostly synchronization discipline: the lookup fast path takes no
// locks at all.
//
// The design follows the lineage of the paper itself. The hashed PCB table
// of §3.4 shipped inside Sequent's parallelized STREAMS TCP [Dov90, Gar90],
// where each chain carried its own lock; the table's first author later
// invented RCU, the canonical read-mostly technique for exactly this kind
// of lookup-dominated structure. Under TPC/A traffic lookups outnumber
// inserts and removes by orders of magnitude, so this package moves the
// chains the rest of the way: readers traverse immutable chain snapshots
// published through atomic pointers, and only writers serialize (per
// chain).
//
// Synchronization invariants:
//
//   - Each hash chain is an immutable slice of (key, PCB) entries. A
//     published slice is never written again; every mutation builds a
//     fresh slice and replaces the chain wholesale — grace-period-safe
//     chain replacement. A reader that loads the chain pointer sees a
//     fully built chain: the old one or the new one, never a half-linked
//     hybrid. Go's memory model makes atomic operations sequentially
//     consistent, so the slice stores made before the pointer publication
//     are visible to any reader ordered after the pointer load.
//   - Grace periods are the garbage collector's job: a replaced chain
//     stays alive exactly as long as some reader still scans it and is
//     reclaimed only after every such reader has moved on. This is the
//     "RCU for free" property of a tracing-GC runtime — no epoch
//     bookkeeping is needed for reclamation.
//   - The entries inline the connection key next to the PCB pointer, so a
//     chain scan walks one contiguous array and dereferences no PCBs
//     until the match is found — the cache-aware layout that repays the
//     paper's examined-PCBs figure of merit in actual memory traffic. A
//     52-entry chain (2,000 users over 19 chains) occupies ~1.2 KB of
//     sequential memory instead of 52 scattered heap objects.
//   - The per-chain one-entry caches of §3.4 are atomic.Pointer[core.PCB]
//     values. Readers publish a newly found PCB with a plain store; a
//     remover clears the cache and bumps the chain's removal epoch, and a
//     reader that raced (found the PCB in an old snapshot, stored it after
//     the clear) detects the epoch change and retracts its own store. A
//     stale cache entry can therefore outlive a removal only for the
//     duration of one in-flight lookup — the same bounded staleness RCU
//     readers accept on the chains themselves — never indefinitely.
//   - Statistics are striped over padded per-P-ish slots updated with
//     atomic adds and folded on Snapshot, so the hot path never shares a
//     counter cache line across CPUs.
//
// Semantics under concurrency are the usual RCU contract: a Lookup
// concurrent with a Remove may return the PCB removed a moment ago, and a
// Lookup concurrent with an Insert may miss the PCB inserted a moment
// later — exactly as if the lookup had been ordered just before the
// writer. Sequential behavior (costs, statistics, placement) is
// bit-for-bit the behavior of core.SequentHash; the conformance tests
// assert this chain by chain.
package rcu

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tcpdemux/internal/core"
	"tcpdemux/internal/hashfn"
	"tcpdemux/internal/stripestat"
)

// entry is one cell of a published chain: the connection key inlined next
// to its PCB so scans stay within the chain's own cache lines, plus the
// key's full 32-bit hash as a scan fingerprint — the chain walk compares
// one word and touches the 12-byte key only on a fingerprint match. The
// hash fits the alignment hole after the key, so the fingerprint is free:
// the entry is 24 bytes either way. Published entries are immutable.
// (Listener entries are matched by wildcard scoring, not equality; their
// hash field is unused.)
type entry struct {
	key  core.Key
	hash uint32
	pcb  *core.PCB
}

// chain is one hash bucket. Readers touch only pcbs, cache and epoch;
// writers serialize on mu. The padding keeps neighbouring chains' hot
// words off one cache line, as in parallel.ShardedSequent.
type chain struct {
	// pcbs points at the chain's current immutable entry slice
	// (front = most recently inserted); nil means empty.
	//demux:atomic
	pcbs  atomic.Pointer[[]entry]
	cache atomic.Pointer[core.PCB] //demux:atomic
	// epoch counts removals on this chain. Readers snapshot it before a
	// chain scan and retract their cache store if it moved — see Lookup.
	//demux:atomic
	epoch atomic.Uint64
	mu    sync.Mutex

	_ [64]byte
}

// Demuxer is the lock-free-read Sequent table. The zero value is not
// usable; construct with New.
type Demuxer struct {
	chains []chain
	hash   hashfn.Func
	// mult short-circuits hashOf to the concrete (inlinable)
	// multiplicative hash when hash is the default hashfn.Multiplicative;
	// an interface call in the lookup fast path costs a real fraction of
	// a chain scan once everything else is lock-free.
	mult bool

	// listen is the wildcard listener table: a COW slice like the chains,
	// with its own writer lock. Listeners have no one-entry cache (they
	// are consulted only after an exact-match miss).
	listenMu sync.Mutex
	listen   atomic.Pointer[[]entry] //demux:atomic

	// conns and listeners track Len without locking every chain.
	conns     atomic.Int64 //demux:atomic
	listeners atomic.Int64 //demux:atomic

	stats stripestat.Stripes
}

// New builds a lock-free-read Sequent demultiplexer with h chains
// (core.DefaultChains if h <= 0) and the given hash function
// (multiplicative if nil). It hashes identically to
// core.NewSequentHash(h, fn), so the two tables place every PCB on the
// same chain.
func New(h int, fn hashfn.Func) *Demuxer {
	if h <= 0 {
		h = core.DefaultChains
	}
	if fn == nil {
		fn = hashfn.Multiplicative{}
	}
	d := &Demuxer{chains: make([]chain, h), hash: fn}
	_, d.mult = fn.(hashfn.Multiplicative)
	d.stats.Init()
	return d
}

// Name implements core.Concurrent.
func (d *Demuxer) Name() string { return fmt.Sprintf("rcu-sequent-%d", len(d.chains)) }

// NumChains returns H.
func (d *Demuxer) NumChains() int { return len(d.chains) }

// hashOf computes an exact key's full hash, used both for chain selection
// and as the entry fingerprint.
//
//demux:hotpath
func (d *Demuxer) hashOf(k core.Key) uint32 {
	if d.mult {
		return hashfn.Multiplicative{}.Hash(k.Tuple())
	}
	return d.hash.Hash(k.Tuple())
}

// chainFor hashes an exact key to its chain index.
func (d *Demuxer) chainFor(k core.Key) int {
	return hashfn.ChainIndex(d.hashOf(k), len(d.chains))
}

// ChainIndexOf exposes the chain placement of an exact key, mirroring
// core.SequentHash.ChainIndexOf.
func (d *Demuxer) ChainIndexOf(k core.Key) int { return d.chainFor(k) }

// load returns the current snapshot of a published entry slice.
func load(p *atomic.Pointer[[]entry]) []entry {
	if s := p.Load(); s != nil {
		return *s
	}
	return nil
}

// prepend builds the COW slice with e at the front of old.
func prepend(e entry, old []entry) *[]entry {
	s := make([]entry, 0, len(old)+1)
	s = append(s, e)
	s = append(s, old...)
	return &s
}

// without builds the COW slice omitting position i of old (nil if that
// empties the chain).
func without(old []entry, i int) *[]entry {
	if len(old) == 1 {
		return nil
	}
	s := make([]entry, 0, len(old)-1)
	s = append(s, old[:i]...)
	s = append(s, old[i+1:]...)
	return &s
}

// Insert implements core.Concurrent. Wildcard keys register
// listeners; exact keys prepend to their chain. Only the relevant writer
// lock is taken; readers are never blocked.
func (d *Demuxer) Insert(p *core.PCB) error {
	if p.Key.IsWildcard() {
		d.listenMu.Lock()
		defer d.listenMu.Unlock()
		old := load(&d.listen)
		for i := range old {
			if old[i].key == p.Key {
				return core.ErrDuplicateKey
			}
		}
		// The new slice is fully built before the store, so a concurrent
		// reader sees either the old table or the complete new one.
		d.listen.Store(prepend(entry{key: p.Key, pcb: p}, old))
		d.listeners.Add(1)
		return nil
	}
	h := d.hashOf(p.Key)
	c := &d.chains[hashfn.ChainIndex(h, len(d.chains))]
	c.mu.Lock()
	defer c.mu.Unlock()
	old := load(&c.pcbs)
	for i := range old {
		if old[i].key == p.Key {
			return core.ErrDuplicateKey
		}
	}
	c.pcbs.Store(prepend(entry{p.Key, h, p}, old))
	d.conns.Add(1)
	return nil
}

// Remove implements core.Concurrent: copy-on-write chain
// replacement under the writer lock, then retraction of the chain's
// one-entry cache if it holds the victim.
func (d *Demuxer) Remove(k core.Key) bool {
	if k.IsWildcard() {
		d.listenMu.Lock()
		defer d.listenMu.Unlock()
		old := load(&d.listen)
		for i := range old {
			if old[i].key == k {
				d.listen.Store(without(old, i))
				d.listeners.Add(-1)
				return true
			}
		}
		return false
	}
	c := &d.chains[d.chainFor(k)]
	c.mu.Lock()
	defer c.mu.Unlock()
	old := load(&c.pcbs)
	for i := range old {
		if old[i].key == k {
			victim := old[i].pcb
			c.pcbs.Store(without(old, i))
			// Invalidate the cache: clear it if it currently holds the
			// victim, and bump the epoch so a reader that found the
			// victim in the old snapshot and stores it into the cache
			// after this point retracts its own store (see the epoch
			// re-check in Lookup).
			c.epoch.Add(1)
			c.cache.CompareAndSwap(victim, nil)
			d.conns.Add(-1)
			return true
		}
	}
	return false
}

// Lookup implements core.Concurrent. The fast path is entirely
// lock-free: probe the chain's one-entry cache, scan the immutable chain
// snapshot, and only on a complete miss consult the listener snapshot.
// Examination accounting matches core.SequentHash exactly.
//
//demux:hotpath
func (d *Demuxer) Lookup(k core.Key, _ core.Direction) core.Result {
	r := d.lookup(k)
	d.stats.Record(r)
	return r
}

// lookup is the lock-free probe behind Lookup; it has three exits and
// Lookup records the result of whichever was taken.
//
//demux:hotpath
func (d *Demuxer) lookup(k core.Key) core.Result {
	h := d.hashOf(k)
	c := &d.chains[hashfn.ChainIndex(h, len(d.chains))]
	var r core.Result
	if p := c.cache.Load(); p != nil {
		r.Examined++
		if p.Key == k {
			r.PCB = p
			r.CacheHit = true
			return r
		}
	}
	// Snapshot the removal epoch before loading the chain: if a removal
	// sneaks in during our scan, the epoch re-check below retracts the
	// cache store so a removed PCB cannot stay cached.
	epoch := c.epoch.Load()
	es := load(&c.pcbs)
	for i := range es {
		r.Examined++
		if es[i].hash == h && es[i].key == k {
			p := es[i].pcb
			r.PCB = p
			c.cache.Store(p)
			if c.epoch.Load() != epoch {
				c.cache.CompareAndSwap(p, nil)
			}
			return r
		}
	}
	// Exact-match miss: best wildcard listener, most specific first-wins,
	// same scoring as core's listen scan.
	best := -1
	ls := load(&d.listen)
	for i := range ls {
		r.Examined++
		if score := core.Match(ls[i].key, k); score > best {
			best = score
			r.PCB = ls[i].pcb
		}
	}
	r.Wildcard = r.PCB != nil
	return r
}

// NotifySend implements core.Concurrent; the Sequent algorithm
// ignores transmissions.
func (d *Demuxer) NotifySend(*core.PCB) {}

// Len implements core.Concurrent.
func (d *Demuxer) Len() int { return int(d.conns.Load() + d.listeners.Load()) }

// Snapshot implements core.Concurrent, folding the striped
// counters. Concurrent with updates it returns a consistent-enough sum:
// every counted lookup is in exactly one stripe.
func (d *Demuxer) Snapshot() core.Stats { return d.stats.Fold() }

// Walk implements core.Concurrent with snapshot semantics:
// it iterates the chain and listener slices as atomically loaded at the
// start of each chain, so fn sees a fully built view even while writers
// publish replacements. Order matches core.SequentHash.Walk: chains
// first, then listeners.
func (d *Demuxer) Walk(fn func(*core.PCB) bool) {
	for i := range d.chains {
		for _, e := range load(&d.chains[i].pcbs) {
			if !fn(e.pcb) {
				return
			}
		}
	}
	for _, e := range load(&d.listen) {
		if !fn(e.pcb) {
			return
		}
	}
}

// WalkChain is the read-only chain-walk hook mirroring
// core.SequentHash.WalkChain, over the chain's current snapshot.
func (d *Demuxer) WalkChain(i int, fn func(*core.PCB) bool) {
	if i < 0 || i >= len(d.chains) {
		return
	}
	for _, e := range load(&d.chains[i].pcbs) {
		if !fn(e.pcb) {
			return
		}
	}
}

var _ core.Concurrent = (*Demuxer)(nil)
