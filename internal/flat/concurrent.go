package flat

import (
	"sync"

	"tcpdemux/internal/core"
	"tcpdemux/internal/stripestat"
)

// Concurrent makes the flat table goroutine-safe with a read-write lock:
// lookups (per-packet and batched) run concurrently under the read lock
// against the raw, statistics-free probes, while inserts, removes and
// the table growth they trigger serialize under the write lock.
// Statistics move out of the table into striped per-goroutine-ish slots
// (stripestat), so concurrent readers never contend on a counter line —
// the inner table's own Stats stay zero.
//
// This is deliberately the middle of the concurrency ladder: more
// permissive than parallel.Locked (readers share), less than
// rcu.Demuxer (an RWMutex still bounces its reader count between CPUs).
// What the flat discipline buys back is the probe itself — one
// contiguous probe group instead of a chain walk — and the batch
// prefetch pipeline, which amortizes both the lock acquisition and the
// memory latency across a train. It satisfies core.Concurrent, snapshot
// contract included.
type Concurrent struct {
	mu    sync.RWMutex
	t     *Hopscotch
	stats stripestat.Stripes
}

// NewConcurrent wraps t. The wrapped table must not be used directly
// afterwards.
func NewConcurrent(t *Hopscotch) *Concurrent {
	c := &Concurrent{t: t}
	c.stats.Init()
	return c
}

// Name implements core.Concurrent; the wrapper is transparent in
// reports.
func (c *Concurrent) Name() string { return c.t.Name() }

// Insert implements core.Concurrent.
func (c *Concurrent) Insert(p *core.PCB) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t.Insert(p)
}

// Remove implements core.Concurrent.
func (c *Concurrent) Remove(k core.Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t.Remove(k)
}

// Lookup implements core.Concurrent: a raw probe under the
// read lock, folded into the wrapper's stripes outside it.
//
//demux:hotpath
func (c *Concurrent) Lookup(k core.Key, dir core.Direction) core.Result {
	c.mu.RLock()
	r := c.t.LookupRaw(k, dir)
	c.mu.RUnlock()
	c.stats.Record(r)
	return r
}

// LookupBatch implements core.Batcher: the whole train resolves under one
// read-lock acquisition with the prefetch pipeline running, and the
// batch's statistics fold into a stripe with one set of atomic adds.
// Results and statistics are identical to per-key Lookup.
//
//demux:hotpath
func (c *Concurrent) LookupBatch(keys []core.Key, _ core.Direction, out []core.Result) []core.Result {
	c.mu.RLock()
	out, st := c.t.lookupBatch(keys, out)
	c.mu.RUnlock()
	c.stats.RecordBatch(st)
	return out
}

// SetPrefetchDepth adjusts the inner table's batch pipeline depth. It
// takes the write lock: depth is read by in-flight batches.
func (c *Concurrent) SetPrefetchDepth(k int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t.SetPrefetchDepth(k)
}

// PrefetchDepth returns the inner table's batch pipeline depth.
func (c *Concurrent) PrefetchDepth() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.t.PrefetchDepth()
}

// NotifySend implements core.Concurrent; the flat table ignores
// transmissions.
func (c *Concurrent) NotifySend(*core.PCB) {}

// Len implements core.Concurrent.
func (c *Concurrent) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.t.Len()
}

// Snapshot implements core.Concurrent, folding the stripes.
func (c *Concurrent) Snapshot() core.Stats { return c.stats.Fold() }

// Walk implements core.Concurrent under the read lock; fn
// must not call back into the demuxer.
func (c *Concurrent) Walk(fn func(*core.PCB) bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.t.Walk(fn)
}

var (
	_ core.Concurrent = (*Concurrent)(nil)
	_ core.Batcher    = (*Concurrent)(nil)
)
