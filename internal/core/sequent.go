package core

import (
	"fmt"

	"tcpdemux/internal/hashfn"
)

// DefaultChains is the Sequent product's installation default of 19 hash
// chains (paper §3.4).
const DefaultChains = 19

// SequentHash is the Sequent algorithm of paper §3.4: the PCB population is
// spread over H hash chains keyed by the connection tuple, and each chain
// carries its own single-entry last-found cache. The expected cost is
// roughly C_BSD(N/H) (Eq. 19) — 53 examinations at 2,000 users with the
// default 19 chains, an order of magnitude below the single-list schemes —
// and the per-chain caches do a little better still (Eq. 22), because a
// chain serving N/H connections sees quiet response intervals far more
// often than a list serving all N.
//
// Listening (wildcard) PCBs cannot be hashed by tuple, so they live on a
// separate listen list scanned only after an exact-match miss, as in modern
// stacks' two-table design.
type SequentHash struct {
	chains []chain
	listen list
	hash   hashfn.Func
	// stats is held by pointer so wrappers that replace the table during
	// a rehash (AutoSequent) can keep the caller-visible Stats pointer
	// stable, as the Demuxer contract requires.
	stats   *Stats
	mtf     bool // move-to-front within chains (MTFHash variant)
	chained int  // the chains' PCBs, so Len (AutoSequent asks every Insert) is O(1)
}

// chain is one hash bucket: a linear PCB list plus its one-entry cache.
type chain struct {
	pcbs  list
	cache *PCB
}

// NewSequentHash returns a demultiplexer with the given number of chains
// (DefaultChains if h <= 0) and hash function (multiplicative if nil).
func NewSequentHash(h int, fn hashfn.Func) *SequentHash {
	if h <= 0 {
		h = DefaultChains
	}
	if fn == nil {
		fn = hashfn.Multiplicative{}
	}
	return &SequentHash{chains: make([]chain, h), hash: fn, stats: new(Stats)}
}

// NewMTFHash returns the §3.5 hybrid: hash chains with move-to-front
// applied within each chain instead of a per-chain cache. The paper argues
// (and the benches confirm) that the at-best factor-of-two gain is beaten
// by simply doubling the chain count.
func NewMTFHash(h int, fn hashfn.Func) *SequentHash {
	d := NewSequentHash(h, fn)
	d.mtf = true
	return d
}

// Name implements Demuxer.
func (d *SequentHash) Name() string {
	kind := "sequent"
	if d.mtf {
		kind = "mtf-hash"
	}
	return fmt.Sprintf("%s-%d", kind, len(d.chains))
}

// NumChains returns the chain count H.
func (d *SequentHash) NumChains() int { return len(d.chains) }

// chainFor returns the chain index for an exact key.
func (d *SequentHash) chainFor(k Key) int {
	return hashfn.ChainIndex(d.hash.Hash(k.Tuple()), len(d.chains))
}

// Insert implements Demuxer. Wildcard keys go to the listen list; exact
// keys to the head of their hash chain.
func (d *SequentHash) Insert(p *PCB) error {
	_, err := d.insert(p)
	return err
}

// insert is Insert that also returns the population of the chain p joined
// (0 for a listener), the one chain AutoSequent's watchdog checks.
func (d *SequentHash) insert(p *PCB) (int, error) {
	if p.Key.IsWildcard() {
		if d.listen.containsExact(p.Key) {
			return 0, ErrDuplicateKey
		}
		d.listen.pushFront(p)
		return 0, nil
	}
	c := &d.chains[d.chainFor(p.Key)]
	if c.pcbs.containsExact(p.Key) {
		return 0, ErrDuplicateKey
	}
	c.pcbs.pushFront(p)
	d.chained++
	return len(c.pcbs), nil
}

// Remove implements Demuxer.
func (d *SequentHash) Remove(k Key) bool {
	if k.IsWildcard() {
		return d.listen.remove(k) != nil
	}
	c := &d.chains[d.chainFor(k)]
	p := c.pcbs.remove(k)
	if p == nil {
		return false
	}
	d.chained--
	if c.cache == p {
		c.cache = nil
	}
	return true
}

// Lookup implements Demuxer: hash to a chain, probe its cache, scan the
// chain; on a complete miss, scan the listen list for the best wildcard
// match.
//
//demux:hotpath
func (d *SequentHash) Lookup(k Key, _ Direction) Result {
	var r Result
	c := &d.chains[d.chainFor(k)]
	if !d.mtf && c.cache != nil {
		r.Examined++
		if Match(c.cache.Key, k) == exactScore {
			r.PCB = c.cache
			r.CacheHit = true
			d.stats.record(r)
			return r
		}
	}
	best, examined, exact := c.pcbs.scan(k)
	r.Examined += examined
	if exact {
		if d.mtf {
			c.pcbs.toFront(len(c.pcbs) - examined)
		} else {
			c.cache = best
		}
		r.PCB = best
		d.stats.record(r)
		return r
	}
	// Chains hold only exact-keyed PCBs, so a non-exact result here is
	// always nil; fall through to the listeners.
	best, examined, _ = d.listen.scan(k)
	r.Examined += examined
	r.PCB = best
	r.Wildcard = best != nil
	d.stats.record(r)
	return r
}

// NotifySend implements Demuxer; the Sequent algorithm ignores
// transmissions.
func (d *SequentHash) NotifySend(*PCB) {}

// Len implements Demuxer.
func (d *SequentHash) Len() int { return d.chained + len(d.listen) }

// Stats implements Demuxer.
func (d *SequentHash) Stats() *Stats { return d.stats }

// ChainLengths returns the current population of each chain, for balance
// diagnostics.
func (d *SequentHash) ChainLengths() []int64 {
	out := make([]int64, len(d.chains))
	for i := range d.chains {
		out[i] = int64(len(d.chains[i].pcbs))
	}
	return out
}

// fullest returns the population of the fullest chain, read in place.
func (d *SequentHash) fullest() int {
	n := 0
	for i := range d.chains {
		n = max(n, len(d.chains[i].pcbs))
	}
	return n
}

// Walk implements Demuxer: chains first, then listeners.
func (d *SequentHash) Walk(fn func(*PCB) bool) {
	for i := range d.chains {
		if !d.chains[i].pcbs.walk(fn) {
			return
		}
	}
	d.listen.walk(fn)
}
