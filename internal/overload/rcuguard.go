package overload

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tcpdemux/internal/core"
	"tcpdemux/internal/hashfn"
	"tcpdemux/internal/rcu"
	"tcpdemux/internal/rng"
	"tcpdemux/internal/telemetry"
)

// tablePair is the atomically published view of the RCU migration: cur is
// the table being drained, next (nil outside a migration) the keyed
// replacement being filled. A published pair is immutable; starting and
// finishing a migration replace the pair wholesale.
type tablePair struct {
	cur  *rcu.Demuxer
	next *rcu.Demuxer
}

// ostats is RCUGuarded's own lookup accounting: one logical lookup per
// packet even when the probe touches both tables. A single shared bundle
// (not striped like rcu's) — the wrapper's tests and the simulator read
// it, nothing benchmarks it.
type ostats struct {
	lookups  atomic.Uint64 //demux:atomic
	examined atomic.Uint64 //demux:atomic
	hits     atomic.Uint64 //demux:atomic
	misses   atomic.Uint64 //demux:atomic
	wildcard atomic.Uint64 //demux:atomic
	maxExam  atomic.Int64  //demux:atomic
}

//demux:hotpath
func (s *ostats) record(r core.Result) {
	s.lookups.Add(1)
	s.examined.Add(uint64(r.Examined))
	switch {
	case r.PCB == nil:
		s.misses.Add(1)
	case r.CacheHit:
		s.hits.Add(1)
	}
	if r.PCB != nil && r.Wildcard {
		s.wildcard.Add(1)
	}
	for {
		cur := s.maxExam.Load()
		if int64(r.Examined) <= cur || s.maxExam.CompareAndSwap(cur, int64(r.Examined)) {
			return
		}
	}
}

func (s *ostats) fold() core.Stats {
	return core.Stats{
		Lookups:      s.lookups.Load(),
		Examined:     s.examined.Load(),
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		WildcardHits: s.wildcard.Load(),
		MaxExamined:  int(s.maxExam.Load()),
	}
}

// RCUGuarded applies the overload defense to the lock-free rcu.Demuxer.
// It keeps rcu's reader contract intact: Lookup takes no locks ever, even
// mid-migration — it loads the published table pair and probes cur then
// next. Writers (Insert/Remove/rekey/migration steps) serialize on one
// mutex and follow the COW republication discipline:
//
//   - startRekey copies listeners into the replacement *before*
//     publishing the pair, then removes them from cur after — so any
//     reader, on any interleaving, finds the listener set in at least one
//     table it probes.
//   - the migration moves each PCB by inserting it into next *before*
//     removing it from cur, the opposite of the reader's cur-then-next
//     probe order — a reader that misses the PCB in cur (already removed)
//     is guaranteed to find it in next (inserted earlier). A reader that
//     sees it in both gets the same *PCB either way.
//   - finishing publishes a pair holding only the replacement; the old
//     table becomes garbage once the last reader drops it (the GC is the
//     grace period, as everywhere in rcu).
//
// The watchdog runs on the writer side (every insert, plus the explicit
// MaybeRekey), so the reader fast path is never taxed with sampling.
type RCUGuarded struct {
	//demux:atomic
	state atomic.Pointer[tablePair]
	stats ostats
	cfg   Config

	// mu serializes writers, rekey decisions, and migration steps. Fields
	// below it are guarded by it.
	mu      sync.Mutex
	src     *rng.Source
	migrate int // next cur chain index to move

	// Rekeys counts watchdog-triggered rekey events (read under mu or
	// after writers quiesce).
	Rekeys int
	// MigratedPCBs counts PCBs moved by the incremental migration.
	MigratedPCBs uint64

	// tel mirrors the counters above (plus chain-skew gauges) onto a
	// telemetry registry; nil until SetTelemetry. Guarded by mu.
	tel *telemetry.OverloadMetrics
}

// SetTelemetry publishes the guard's rekey/migration counters and
// watchdog chain observations on m (nil disables).
func (d *RCUGuarded) SetTelemetry(m *telemetry.OverloadMetrics) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tel = m
}

// NewRCUGuarded wraps a fresh rcu.Demuxer of h chains (core.DefaultChains
// if h <= 0) using fn as the initial hash — an unkeyed hash models a
// legacy deployment, nil draws a secret key from seed. Every rekey draws
// its replacement key from the seed's stream. cfg zero fields take
// defaults.
func NewRCUGuarded(h int, fn hashfn.Func, seed uint64, cfg Config) *RCUGuarded {
	src := rng.New(seed)
	if fn == nil {
		fn = hashfn.KeyedFromRNG(src)
	}
	d := &RCUGuarded{cfg: cfg.withDefaults(), src: src}
	d.state.Store(&tablePair{cur: rcu.New(h, fn)})
	return d
}

// Name implements core.Concurrent.
func (d *RCUGuarded) Name() string {
	return fmt.Sprintf("rcu-guarded-%d", d.state.Load().cur.NumChains())
}

// Migrating reports whether a rekey is in flight.
func (d *RCUGuarded) Migrating() bool { return d.state.Load().next != nil }

// Lookup implements core.Concurrent, lock-free in every phase.
//
// An exact match is trusted unconditionally (the PCB was found; its
// identity does not depend on which generation of table held it). A miss
// or wildcard-only result is trusted only if the published pair did not
// change during the probe: a reader descheduled across a whole
// rekey-finish *and* the next rekey-start would otherwise scan two stale
// tables while its key migrated to a third it never probed. The re-load
// check detects exactly that interleaving and retries against the fresh
// pair — the same validate-and-retract idea as the chain caches' epoch
// check, applied at table granularity. Retries happen only when a rekey
// publication lands mid-probe, so the loop is effectively bounded by the
// (rare) rekey rate.
//
//demux:hotpath
func (d *RCUGuarded) Lookup(k core.Key, dir core.Direction) core.Result {
	wasted := 0
	for {
		pair := d.state.Load()
		r := pair.cur.LookupRaw(k, dir)
		if pair.next != nil && (r.PCB == nil || r.Wildcard) {
			// No exact match in the draining table: the connection (or
			// the best listener) may have moved already.
			r2 := pair.next.LookupRaw(k, dir)
			examined := r.Examined + r2.Examined
			switch {
			case r.PCB == nil:
				r = r2
			case r2.PCB != nil && !r2.Wildcard:
				r = r2
			case r2.PCB != nil && core.Match(r2.PCB.Key, k) > core.Match(r.PCB.Key, k):
				r = r2
			}
			r.Examined = examined
		}
		if (r.PCB != nil && !r.Wildcard) || d.state.Load() == pair {
			// Abandoned probes still touched PCBs; keep the figure of
			// merit honest.
			r.Examined += wasted
			d.stats.record(r)
			return r
		}
		wasted += r.Examined
	}
}

// containsExact scans the key's chain in t for an exact match, bypassing
// the one-entry cache (which may transiently hold a just-removed PCB).
func containsExact(t *rcu.Demuxer, k core.Key) bool {
	found := false
	t.WalkChain(t.ChainIndexOf(k), func(p *core.PCB) bool {
		if p.Key == k {
			found = true
			return false
		}
		return true
	})
	return found
}

// Insert implements core.Concurrent. During a migration new
// PCBs go straight to the replacement table; the duplicate check spans
// both. Each insert also runs the watchdog (or advances the migration).
func (d *RCUGuarded) Insert(p *core.PCB) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	pair := d.state.Load()
	if pair.next != nil {
		if !p.Key.IsWildcard() && containsExact(pair.cur, p.Key) {
			return core.ErrDuplicateKey
		}
		if err := pair.next.Insert(p); err != nil {
			return err
		}
		d.stepLocked(pair, d.cfg.Stride)
		return nil
	}
	if err := pair.cur.Insert(p); err != nil {
		return err
	}
	d.maybeRekeyLocked(pair)
	return nil
}

// Remove implements core.Concurrent.
func (d *RCUGuarded) Remove(k core.Key) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	pair := d.state.Load()
	if pair.next != nil {
		ok := pair.next.Remove(k) || pair.cur.Remove(k)
		d.stepLocked(pair, d.cfg.Stride)
		return ok
	}
	return pair.cur.Remove(k)
}

// NotifySend implements core.Concurrent (ignored, as in rcu).
func (d *RCUGuarded) NotifySend(*core.PCB) {}

// Len implements core.Concurrent. Taken under mu so a PCB
// mid-move (present in both tables for an instant) is not double-counted.
func (d *RCUGuarded) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	pair := d.state.Load()
	if pair.next != nil {
		return pair.cur.Len() + pair.next.Len()
	}
	return pair.cur.Len()
}

// Snapshot implements core.Concurrent: the wrapper's own
// logical-lookup statistics.
func (d *RCUGuarded) Snapshot() core.Stats { return d.stats.fold() }

// Walk implements core.Concurrent. It holds mu, so the
// every-key-in-exactly-one-table invariant holds and no PCB is yielded
// twice.
func (d *RCUGuarded) Walk(fn func(*core.PCB) bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	pair := d.state.Load()
	done := false
	pair.cur.Walk(func(p *core.PCB) bool {
		if !fn(p) {
			done = true
			return false
		}
		return true
	})
	if done || pair.next == nil {
		return
	}
	pair.next.Walk(fn)
}

// ChainLengths samples the live table's chain populations (the
// replacement's, once a rekey is in flight).
func (d *RCUGuarded) ChainLengths() []int64 {
	pair := d.state.Load()
	if pair.next != nil {
		return pair.next.ChainLengths()
	}
	return pair.cur.ChainLengths()
}

// NumChains reports the live table's chain count (the replacement's,
// once a rekey is in flight).
func (d *RCUGuarded) NumChains() int {
	pair := d.state.Load()
	if pair.next != nil {
		return pair.next.NumChains()
	}
	return pair.cur.NumChains()
}

// MaybeRekey runs one watchdog check immediately.
func (d *RCUGuarded) MaybeRekey() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.maybeRekeyLocked(d.state.Load())
}

// Advance moves up to n chains of an in-flight migration — the hook for
// drivers that want migration progress independent of write traffic.
func (d *RCUGuarded) Advance(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if pair := d.state.Load(); pair.next != nil {
		d.stepLocked(pair, n)
	}
}

// maybeRekeyLocked samples chain lengths and starts a migration on skew.
// Callers hold mu and pass the currently published pair.
func (d *RCUGuarded) maybeRekeyLocked(pair *tablePair) {
	if pair.next != nil {
		return
	}
	lengths := pair.cur.ChainLengths()
	d.tel.ObserveChains(lengths)
	if !Skewed(lengths, d.cfg) && !Overloaded(lengths, d.cfg) {
		return
	}
	var pop int64
	for _, n := range lengths {
		pop += n
	}
	next := rcu.New(chainsFor(int(pop), pair.cur.NumChains(), d.cfg), hashfn.KeyedFromRNG(d.src))
	// Copy listeners into the replacement before publishing it, remove
	// them from cur after: every reader interleaving finds the full
	// listener set in at least one probed table.
	var listeners []*core.PCB
	pair.cur.WalkListeners(func(p *core.PCB) bool {
		listeners = append(listeners, p)
		return true
	})
	for _, p := range listeners {
		if err := next.Insert(p); err != nil {
			panic("overload: rekey found duplicate listener: " + err.Error())
		}
	}
	d.state.Store(&tablePair{cur: pair.cur, next: next})
	for _, p := range listeners {
		pair.cur.Remove(p.Key)
	}
	d.migrate = 0
	d.Rekeys++
	if d.tel != nil {
		d.tel.Rekeys.Inc()
	}
}

// stepLocked advances the migration by up to n chains, publishing the
// finished single-table pair when the drain completes. Callers hold mu.
func (d *RCUGuarded) stepLocked(pair *tablePair, n int) {
	cur, next := pair.cur, pair.next
	for i := 0; i < n && d.migrate < cur.NumChains(); i++ {
		var move []*core.PCB
		cur.WalkChain(d.migrate, func(p *core.PCB) bool {
			move = append(move, p)
			return true
		})
		for _, p := range move {
			// Insert before remove — the inverse of the reader's
			// cur-then-next probe order, so no interleaving misses p.
			if err := next.Insert(p); err != nil {
				panic("overload: migration found duplicate key: " + err.Error())
			}
			cur.Remove(p.Key)
			d.MigratedPCBs++
			if d.tel != nil {
				d.tel.Migrated.Inc()
			}
		}
		d.migrate++
	}
	if d.migrate >= cur.NumChains() && cur.Len() == 0 {
		d.state.Store(&tablePair{cur: next})
	}
}

var _ core.Concurrent = (*RCUGuarded)(nil)
