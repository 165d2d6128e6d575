// Package overload defends the Sequent hashed PCB table against
// adversarial address populations.
//
// The paper's analysis (§3.5) assumes the hash spreads connections evenly
// — true for the benign OLTP populations it models, and false the moment
// an adversary who controls (srcAddr, srcPort) synthesizes tuples that
// collide under the (public, unkeyed) hash: every PCB lands on one chain
// and the winner degrades to the BSD linear list. hashfn.AttackPopulation
// builds exactly that population.
//
// The defense has two parts:
//
//   - A chain-length watchdog (Skewed) that samples per-chain depth and
//     flags a table whose fullest chain exceeds skewFactor times the mean
//     — cheap enough to run every checkEvery lookups.
//   - An online incremental rekey/rehash: when the watchdog trips, a new
//     table is allocated with a fresh secret SipHash key (and a chain
//     count resized to the live population), and PCBs migrate to it a few
//     chains per operation. Lookups continue throughout — each probes the
//     old table and then the new — so there is no stop-the-world rehash
//     pause, and the attacker must re-derive the (secret, unknowable) key
//     placement to re-skew the table.
//
// Guarded wraps the single-writer SequentHash — the table a shard owns.
// It is the only guard: nothing in the engine, the shard layer or the
// server accepts a concurrent table, so the protocol is written once.
package overload

import (
	"fmt"
	"math"

	"tcpdemux/internal/core"
	"tcpdemux/internal/hashfn"
	"tcpdemux/internal/rng"
	"tcpdemux/internal/telemetry"
)

// The watchdog and migration parameters. No caller ever ran the defense
// with other values, so they are constants.
const (
	// skewFactor trips the watchdog when the fullest chain exceeds this
	// multiple of the mean chain length: a healthy keyed hash stays under
	// ~3x mean even at modest populations, while a collision attack
	// concentrates essentially everything on one chain.
	skewFactor = 8.0
	// minPopulation suppresses the watchdog below this many chained PCBs;
	// tiny tables are legitimately lumpy.
	minPopulation = 64
	// checkEvery is the lookup-count sampling period of the watchdog.
	checkEvery = 256
	// stride is the number of chains migrated per operation once a rekey
	// is in flight.
	stride = 4
	// targetLoad sizes the replacement table: the new chain count is the
	// population divided by this load (never fewer chains than before) —
	// between core.DefaultMaxLoad's threshold regime and the paper's
	// "insignificant fraction" operating point.
	targetLoad = 8.0
	// growFactor trips the watchdog on plain overload — mean chain load
	// beyond growFactor times targetLoad — so a balanced-but-swamped table
	// is rebuilt too (AutoSequent's growth rule, made incremental).
	growFactor = 2.0
	// maxChains caps the replacement table's chain count.
	maxChains = 1 << 16
)

// Skewed reports whether a chain-length sample trips the watchdog: the
// population is at least minPopulation and the fullest chain exceeds
// skewFactor times the mean chain length.
func Skewed(lengths []int64) bool {
	if len(lengths) == 0 {
		return false
	}
	var pop, max int64
	for _, n := range lengths {
		pop += n
		if n > max {
			max = n
		}
	}
	if pop < minPopulation {
		return false
	}
	mean := float64(pop) / float64(len(lengths))
	return float64(max) > skewFactor*mean
}

// Overloaded reports whether the sample trips the watchdog's growth rule:
// at least minPopulation PCBs and a mean chain load beyond
// growFactor x targetLoad. A collision flood that is *not* defeated by
// hash quality (the attacker keeps pouring connections in) eventually
// presents as overload rather than skew once the table is keyed; this
// rule keeps resizing it incrementally.
func Overloaded(lengths []int64) bool {
	if len(lengths) == 0 {
		return false
	}
	var pop int64
	for _, n := range lengths {
		pop += n
	}
	if pop < minPopulation {
		return false
	}
	return float64(pop) > growFactor*targetLoad*float64(len(lengths))
}

// chainsFor sizes the replacement table for a live population: enough
// chains to hold pop at targetLoad, never shrinking below cur, capped at
// maxChains.
func chainsFor(pop, cur int) int {
	want := int(math.Ceil(float64(pop) / targetLoad))
	if want < cur {
		want = cur
	}
	if want > maxChains {
		want = maxChains
	}
	if want < 1 {
		want = 1
	}
	return want
}

// Guarded wraps core.SequentHash with the watchdog and the online
// incremental rekey. It is a core.Demuxer: like every demuxer in core it
// is single-goroutine ("locked" in the parallel package's sense — wrap it
// there for concurrent use); the online property it provides is bounded
// per-operation work, never a stop-the-world rehash of the whole table.
//
// During a migration the PCB set is split between cur (not yet migrated)
// and next (migrated + newly inserted); every key lives in exactly one.
// Lookups probe cur then next and advance the migration by stride chains,
// so the rehash cost is amortized across the very lookups the attack
// generates.
type Guarded struct {
	src  *rng.Source
	cur  *core.SequentHash
	next *core.SequentHash // nil unless a rekey is in flight
	// migrate is the next cur chain index to move.
	migrate int
	// sinceCheck counts lookups since the last watchdog sample.
	sinceCheck int
	stats      core.Stats

	// Rekeys counts watchdog-triggered rekey events.
	Rekeys int
	// MigratedPCBs counts PCBs moved by the incremental migration.
	MigratedPCBs uint64

	// tel mirrors the counters above (plus chain-skew gauges) onto a
	// telemetry registry; nil until SetTelemetry.
	tel *telemetry.OverloadMetrics
}

// SetTelemetry publishes the guard's rekey/migration counters and
// watchdog chain observations on m (nil disables).
func (g *Guarded) SetTelemetry(m *telemetry.OverloadMetrics) { g.tel = m }

// NewGuarded wraps a fresh SequentHash of h chains (core.DefaultChains if
// h <= 0) using fn as the initial hash — pass an unkeyed hash to model a
// legacy deployment, or nil for a secret key drawn from seed. Every rekey
// draws its replacement key from the seed's stream, so runs are
// deterministic per seed while chain placement stays unpredictable to a
// key-blind adversary.
func NewGuarded(h int, fn hashfn.Func, seed uint64) *Guarded {
	src := rng.New(seed)
	if fn == nil {
		fn = hashfn.KeyedFromRNG(src)
	}
	return &Guarded{
		src: src,
		cur: core.NewSequentHash(h, fn),
	}
}

// Name implements core.Demuxer.
func (g *Guarded) Name() string {
	return fmt.Sprintf("guarded-sequent-%d", g.cur.NumChains())
}

// Migrating reports whether a rekey is in flight.
func (g *Guarded) Migrating() bool { return g.next != nil }

// NumChains returns the chain count of the table new inserts go to.
func (g *Guarded) NumChains() int {
	if g.next != nil {
		return g.next.NumChains()
	}
	return g.cur.NumChains()
}

// Insert implements core.Demuxer. During a migration new PCBs go straight
// to the replacement table (their final home); the duplicate check spans
// both tables.
func (g *Guarded) Insert(p *core.PCB) error {
	if g.next != nil {
		if !p.Key.IsWildcard() && g.containsExact(g.cur, p.Key) {
			return core.ErrDuplicateKey
		}
		// Listeners were moved to next when the rekey started, so
		// next.Insert alone checks listener duplicates.
		if err := g.next.Insert(p); err != nil {
			return err
		}
		g.step()
		return nil
	}
	if err := g.cur.Insert(p); err != nil {
		return err
	}
	g.maybeRekey()
	return nil
}

// containsExact scans the key's chain for an exact match without touching
// caches or statistics.
func (g *Guarded) containsExact(t *core.SequentHash, k core.Key) bool {
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

// Remove implements core.Demuxer.
func (g *Guarded) Remove(k core.Key) bool {
	if g.next != nil {
		ok := g.next.Remove(k) || g.cur.Remove(k)
		g.step()
		return ok
	}
	return g.cur.Remove(k)
}

// Lookup implements core.Demuxer. Outside a migration it is a plain
// SequentHash lookup; during one it probes cur then next (every key lives
// in exactly one) and charges the logical lookup — examinations summed
// across both probes — to its own statistics. Each lookup also advances
// the migration by one stride and feeds the watchdog sampler.
func (g *Guarded) Lookup(k core.Key, dir core.Direction) core.Result {
	r := g.cur.Lookup(k, dir)
	if g.next != nil {
		if r.PCB == nil || r.Wildcard {
			// No exact match in the old table; the answer — exact or
			// listener — lives in the replacement. (Listeners move at
			// rekey start, so cur cannot return a wildcard here, but the
			// combine stays defensive.)
			r2 := g.next.Lookup(k, dir)
			r2.Examined += r.Examined
			r = r2
		}
		g.step()
	} else if g.sinceCheck++; g.sinceCheck >= checkEvery {
		g.sinceCheck = 0
		g.maybeRekey()
	}
	g.stats.Record(r)
	return r
}

// NotifySend implements core.Demuxer.
func (g *Guarded) NotifySend(p *core.PCB) {
	if g.next != nil {
		g.next.NotifySend(p)
	}
	g.cur.NotifySend(p)
}

// Len implements core.Demuxer.
func (g *Guarded) Len() int {
	if g.next != nil {
		return g.cur.Len() + g.next.Len()
	}
	return g.cur.Len()
}

// Stats implements core.Demuxer: the wrapper's own logical-lookup
// statistics, not the inner tables'. The pointer stays valid across
// rekeys.
func (g *Guarded) Stats() *core.Stats { return &g.stats }

// Walk implements core.Demuxer: the not-yet-migrated remainder first,
// then the replacement table.
func (g *Guarded) Walk(fn func(*core.PCB) bool) {
	done := false
	g.cur.Walk(func(p *core.PCB) bool {
		if !fn(p) {
			done = true
			return false
		}
		return true
	})
	if done || g.next == nil {
		return
	}
	g.next.Walk(fn)
}

// ChainLengths exposes the live table's chain populations (the
// replacement table's, once a rekey is in flight).
func (g *Guarded) ChainLengths() []int64 {
	if g.next != nil {
		return g.next.ChainLengths()
	}
	return g.cur.ChainLengths()
}

// MaybeRekey runs one watchdog check immediately (the sampled path does
// this every checkEvery lookups).
func (g *Guarded) MaybeRekey() { g.maybeRekey() }

// maybeRekey samples chain lengths and starts a migration on skew.
func (g *Guarded) maybeRekey() {
	if g.next != nil {
		return
	}
	lengths := g.cur.ChainLengths()
	g.tel.ObserveChains(lengths)
	if !Skewed(lengths) && !Overloaded(lengths) {
		return
	}
	var pop int64
	for _, n := range lengths {
		pop += n
	}
	// Fresh secret key; resized table. The attacker's population was
	// built against the old placement, and without the new key it cannot
	// aim at the new one.
	g.next = core.NewSequentHash(chainsFor(int(pop), g.cur.NumChains()), hashfn.KeyedFromRNG(g.src))
	g.migrate = 0
	g.Rekeys++
	if g.tel != nil {
		g.tel.Rekeys.Inc()
	}
	// Listeners move immediately: there are few of them, and housing them
	// in one table keeps the lookup combine trivial.
	var listeners []*core.PCB
	g.cur.WalkListeners(func(p *core.PCB) bool {
		listeners = append(listeners, p)
		return true
	})
	for _, p := range listeners {
		g.cur.Remove(p.Key)
		if err := g.next.Insert(p); err != nil {
			panic("overload: rekey found duplicate listener: " + err.Error())
		}
	}
}

// Advance moves up to n chains of an in-flight migration — the hook for
// drivers that want migration progress independent of traffic (lookups
// and writes already advance one stride each).
func (g *Guarded) Advance(n int) { g.stepN(n) }

// step advances an in-flight migration by stride chains.
func (g *Guarded) step() { g.stepN(stride) }

func (g *Guarded) stepN(chains int) {
	if g.next == nil {
		return
	}
	for n := 0; n < chains && g.migrate < g.cur.NumChains(); n++ {
		var move []*core.PCB
		g.cur.WalkChain(g.migrate, func(p *core.PCB) bool {
			move = append(move, p)
			return true
		})
		for _, p := range move {
			g.cur.Remove(p.Key)
			if err := g.next.Insert(p); err != nil {
				panic("overload: migration found duplicate key: " + err.Error())
			}
			g.MigratedPCBs++
			if g.tel != nil {
				g.tel.Migrated.Inc()
			}
		}
		g.migrate++
	}
	if g.migrate >= g.cur.NumChains() && g.cur.Len() == 0 {
		g.cur = g.next
		g.next = nil
		g.sinceCheck = 0
	}
}

var _ core.Demuxer = (*Guarded)(nil)

// AttackTable is what an adversarial workload needs from a table under a
// collision attack: the demultiplexer itself plus the rekey machinery's
// progress hooks. Guarded satisfies it; Undefended adapts the bare table
// it is measured against.
type AttackTable interface {
	core.Table
	Migrating() bool
	Advance(n int)
	NumChains() int
}

// Undefended is a plain SequentHash as an AttackTable: no watchdog, so it
// never migrates and Advance has nothing to move.
type Undefended struct{ *core.SequentHash }

// Migrating implements AttackTable.
func (Undefended) Migrating() bool { return false }

// Advance implements AttackTable.
func (Undefended) Advance(int) {}

var (
	_ AttackTable = Undefended{}
	_ AttackTable = (*Guarded)(nil)
)
