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
// The defense is a chain-length watchdog (Skewed) over core.AutoSequent:
// it flags a table whose fullest chain exceeds skewFactor times the mean,
// and a trip rekeys the table in one pass under a fresh secret SipHash key
// (AutoSequent.Rekey), so the attacker must re-derive the unknowable
// placement to re-skew it. Growth is AutoSequent's own rule.
package overload

import (
	"fmt"

	"tcpdemux/internal/core"
	"tcpdemux/internal/hashfn"
	"tcpdemux/internal/rng"
	"tcpdemux/internal/telemetry"
)

// The watchdog parameters. No caller ever ran the defense with other
// values, so they are constants.
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

// Guarded is a core.AutoSequent with the chain-skew watchdog: it samples
// chain lengths on every insert and every checkEvery lookups, and on skew
// rekeys the table under a key drawn from its seeded source. Like every
// demuxer in core it is single-goroutine.
type Guarded struct {
	*core.AutoSequent
	src *rng.Source
	// sinceCheck counts lookups since the last watchdog sample.
	sinceCheck int

	// Rekeys counts watchdog-triggered rekeys.
	Rekeys int

	// tel mirrors Rekeys (plus chain-skew gauges) onto a telemetry
	// registry; nil until SetTelemetry.
	tel *telemetry.OverloadMetrics
}

// NewGuarded returns a guarded table of h chains (core.DefaultChains if
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
	return &Guarded{AutoSequent: core.NewAutoSequent(h, fn), src: src}
}

// SetTelemetry publishes the guard's rekey counter and watchdog chain
// observations on m (nil disables).
func (g *Guarded) SetTelemetry(m *telemetry.OverloadMetrics) { g.tel = m }

// Name implements core.Demuxer.
func (g *Guarded) Name() string {
	return fmt.Sprintf("guarded-sequent-%d", g.NumChains())
}

// Insert implements core.Demuxer and samples the watchdog.
func (g *Guarded) Insert(p *core.PCB) error {
	if err := g.AutoSequent.Insert(p); err != nil {
		return err
	}
	g.check()
	return nil
}

// Lookup implements core.Demuxer, sampling the watchdog every checkEvery
// lookups.
func (g *Guarded) Lookup(k core.Key, dir core.Direction) core.Result {
	r := g.AutoSequent.Lookup(k, dir)
	if g.sinceCheck++; g.sinceCheck >= checkEvery {
		g.sinceCheck = 0
		g.check()
	}
	return r
}

// check samples chain lengths and rekeys on skew. The attacker's
// population was built against the old placement, and without the new
// key it cannot aim at the new one.
func (g *Guarded) check() {
	lengths := g.ChainLengths()
	g.tel.ObserveChains(lengths)
	if !Skewed(lengths) {
		return
	}
	g.Rekey(hashfn.KeyedFromRNG(g.src))
	g.Rekeys++
	if g.tel != nil {
		g.tel.Rekeys.Inc()
	}
}

var _ core.Demuxer = (*Guarded)(nil)
