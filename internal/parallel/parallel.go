// Package parallel adds the concurrency dimension the paper's algorithm
// actually shipped in: Sequent's TCP ran inside a parallelized STREAMS
// framework on SMP hardware [Dov90, Gar90], where the hashed PCB table's
// second virtue — after shorter scans — is that each chain can carry its
// own lock, so packets for different chains demultiplex concurrently.
//
// Two locking disciplines are provided, the pair [Dov90] contrasts:
//
//   - Locked: any core.Demuxer behind one mutex — the global-lock
//     discipline a single linear list forces, since every lookup walks the
//     same structure.
//   - ShardedSequent: the Sequent design with one lock per hash chain plus
//     a listener lock; lookups for different chains never contend.
//
// Nothing shipped shares a table between goroutines — engine.Stack and
// shard.StackSet each own theirs — so the two tables exist for EXP-PAR's
// measurement of what the per-chain locks buy over the global one:
// BenchmarkParallel and BenchmarkParallelTPCA in bench_test.go, the second
// replaying a recorded TPC/A stream (TPCAStream).
//
// Both satisfy core.Concurrent (which documents the statistics-snapshot
// and Walk contracts); New builds either by name.
package parallel

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"tcpdemux/internal/core"
	"tcpdemux/internal/hashfn"
)

// Locked wraps a plain demuxer with a single mutex.
type Locked struct {
	mu sync.Mutex
	d  core.Demuxer
}

// NewLocked wraps d. The wrapped demuxer must not be used directly
// afterwards.
func NewLocked(d core.Demuxer) *Locked { return &Locked{d: d} }

// Name implements core.Concurrent.
func (l *Locked) Name() string { return "locked-" + l.d.Name() }

// Insert implements core.Concurrent.
func (l *Locked) Insert(p *core.PCB) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.d.Insert(p)
}

// Remove implements core.Concurrent.
func (l *Locked) Remove(k core.Key) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.d.Remove(k)
}

// Lookup implements core.Concurrent.
//
//demux:hotpath
func (l *Locked) Lookup(k core.Key, dir core.Direction) core.Result {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.d.Lookup(k, dir)
}

// NotifySend implements core.Concurrent.
func (l *Locked) NotifySend(p *core.PCB) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.d.NotifySend(p)
}

// Len implements core.Concurrent.
func (l *Locked) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.d.Len()
}

// Snapshot implements core.Concurrent.
func (l *Locked) Snapshot() core.Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return *l.d.Stats()
}

// Walk implements core.Concurrent, delegating under the global lock.
func (l *Locked) Walk(fn func(*core.PCB) bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.d.Walk(fn)
}

// ShardedSequent is the Sequent hashed demultiplexer with per-chain
// locking: the hash is computed outside any lock, then only the target
// chain's mutex is taken. Each chain keeps its own one-entry cache and its
// own linear list, exactly as in core.SequentHash; the listener table has
// a separate lock, taken only on an exact-match miss.
//
// Statistics are kept per chain and merged on Snapshot, so the hot path
// shares no cache lines between chains beyond the (read-only) hash
// function and chain table. Examination counting matches core.SequentHash.
type ShardedSequent struct {
	chains []shard
	hash   hashfn.Func

	listenMu sync.Mutex
	listen   []*core.PCB

	// misses and wildcardHits are updated on the (rare) listener path.
	misses       atomic.Uint64
	wildcardHits atomic.Uint64
}

// shard is one chain plus its lock and statistics. The stats padding is a
// deliberate false-sharing guard: each shard's counters live on their own
// cache line region.
type shard struct {
	mu    sync.Mutex
	pcbs  []*core.PCB // front = most recently inserted
	cache *core.PCB

	lookups  uint64
	hits     uint64
	examined uint64
	maxExam  int

	_ [32]byte // pad to keep neighbouring shards off one line
}

// NewShardedSequent builds a per-chain-locked Sequent demultiplexer with h
// chains (core.DefaultChains if h <= 0) and the given hash (multiplicative
// if nil).
func NewShardedSequent(h int, fn hashfn.Func) *ShardedSequent {
	if h <= 0 {
		h = core.DefaultChains
	}
	if fn == nil {
		fn = hashfn.Multiplicative{}
	}
	return &ShardedSequent{chains: make([]shard, h), hash: fn}
}

// Name implements core.Concurrent.
func (d *ShardedSequent) Name() string {
	return fmt.Sprintf("sharded-sequent-%d", len(d.chains))
}

// NumChains returns H.
func (d *ShardedSequent) NumChains() int { return len(d.chains) }

// chainFor hashes the key to its shard.
func (d *ShardedSequent) chainFor(k core.Key) *shard {
	idx := hashfn.ChainIndex(d.hash.Hash(k.Tuple()), len(d.chains))
	return &d.chains[idx]
}

// Insert implements core.Concurrent.
func (d *ShardedSequent) Insert(p *core.PCB) error {
	if p.Key.IsWildcard() {
		d.listenMu.Lock()
		defer d.listenMu.Unlock()
		for _, l := range d.listen {
			if l.Key == p.Key {
				return core.ErrDuplicateKey
			}
		}
		d.listen = append([]*core.PCB{p}, d.listen...)
		return nil
	}
	s := d.chainFor(p.Key)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, q := range s.pcbs {
		if q.Key == p.Key {
			return core.ErrDuplicateKey
		}
	}
	s.pcbs = append([]*core.PCB{p}, s.pcbs...)
	return nil
}

// Remove implements core.Concurrent.
func (d *ShardedSequent) Remove(k core.Key) bool {
	if k.IsWildcard() {
		d.listenMu.Lock()
		defer d.listenMu.Unlock()
		for i, l := range d.listen {
			if l.Key == k {
				d.listen = append(d.listen[:i], d.listen[i+1:]...)
				return true
			}
		}
		return false
	}
	s := d.chainFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, q := range s.pcbs {
		if q.Key == k {
			s.pcbs = append(s.pcbs[:i], s.pcbs[i+1:]...)
			if s.cache == q {
				s.cache = nil
			}
			return true
		}
	}
	return false
}

// Lookup implements core.Concurrent: probe the chain cache, scan the
// chain, and only on a complete miss consult the listener table.
//
//demux:hotpath
func (d *ShardedSequent) Lookup(k core.Key, _ core.Direction) core.Result {
	s := d.chainFor(k)
	var r core.Result
	s.mu.Lock()
	if s.cache != nil {
		r.Examined++
		if s.cache.Key == k {
			r.PCB = s.cache
			r.CacheHit = true
			s.record(r)
			s.mu.Unlock()
			return r
		}
	}
	for _, q := range s.pcbs {
		r.Examined++
		if q.Key == k {
			r.PCB = q
			s.cache = q
			s.record(r)
			s.mu.Unlock()
			return r
		}
	}
	s.record(r) // records the failed chain walk's cost
	s.mu.Unlock()

	// Listener fallback outside the chain lock.
	d.listenMu.Lock()
	best := -1
	for _, l := range d.listen {
		r.Examined++
		if score := core.Match(l.Key, k); score > best {
			best = score
			r.PCB = l
		}
	}
	d.listenMu.Unlock()
	if r.PCB != nil {
		r.Wildcard = true
		d.wildcardHits.Add(1)
	} else {
		d.misses.Add(1)
	}
	return r
}

// record updates the shard's counters; the caller holds s.mu. The listener
// portion of a miss's examinations is accounted globally, not per shard.
//
//demux:hotpath
func (s *shard) record(r core.Result) {
	s.lookups++
	s.examined += uint64(r.Examined)
	if r.Examined > s.maxExam {
		s.maxExam = r.Examined
	}
	if r.CacheHit {
		s.hits++
	}
}

// Walk implements core.Concurrent: chains in index order, each under its
// own lock (per-chain snapshot semantics), then the listeners. fn must not
// call back into the demuxer.
func (d *ShardedSequent) Walk(fn func(*core.PCB) bool) {
	for i := range d.chains {
		s := &d.chains[i]
		s.mu.Lock()
		for _, p := range s.pcbs {
			if !fn(p) {
				s.mu.Unlock()
				return
			}
		}
		s.mu.Unlock()
	}
	d.listenMu.Lock()
	defer d.listenMu.Unlock()
	for _, l := range d.listen {
		if !fn(l) {
			return
		}
	}
}

// NotifySend implements core.Concurrent; Sequent ignores transmissions.
func (d *ShardedSequent) NotifySend(*core.PCB) {}

// Len implements core.Concurrent.
func (d *ShardedSequent) Len() int {
	n := 0
	for i := range d.chains {
		s := &d.chains[i]
		s.mu.Lock()
		n += len(s.pcbs)
		s.mu.Unlock()
	}
	d.listenMu.Lock()
	n += len(d.listen)
	d.listenMu.Unlock()
	return n
}

// Snapshot implements core.Concurrent, merging per-shard counters.
func (d *ShardedSequent) Snapshot() core.Stats {
	var st core.Stats
	for i := range d.chains {
		s := &d.chains[i]
		s.mu.Lock()
		st.Lookups += s.lookups
		st.Hits += s.hits
		st.Examined += s.examined
		if s.maxExam > st.MaxExamined {
			st.MaxExamined = s.maxExam
		}
		s.mu.Unlock()
	}
	st.Misses = d.misses.Load()
	st.WildcardHits = d.wildcardHits.Load()
	return st
}

// disciplines maps locking-discipline names to constructors, mirroring
// core's algorithm registry so the benchmarks can build any of the
// head-to-head variants by name.
var disciplines = map[string]func(core.Config) core.Concurrent{
	"locked-bsd":     func(core.Config) core.Concurrent { return NewLocked(core.NewBSDList()) },
	"locked-sequent": func(c core.Config) core.Concurrent { return NewLocked(core.NewSequentHash(c.Chains, c.Hash)) },
	"sharded-sequent": func(c core.Config) core.Concurrent {
		return NewShardedSequent(c.Chains, c.Hash)
	},
}

// New constructs a concurrent demuxer by locking-discipline name. Valid
// names are listed by Disciplines.
func New(name string, cfg core.Config) (core.Concurrent, error) {
	b, ok := disciplines[name]
	if !ok {
		return nil, fmt.Errorf("parallel: unknown discipline %q (have %s)",
			name, strings.Join(Disciplines(), ", "))
	}
	return b(cfg), nil
}

// Disciplines returns the registered discipline names, sorted.
func Disciplines() []string {
	names := make([]string, 0, len(disciplines))
	for n := range disciplines {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

var (
	_ core.Concurrent = (*Locked)(nil)
	_ core.Concurrent = (*ShardedSequent)(nil)
)
