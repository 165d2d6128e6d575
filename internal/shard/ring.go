// Package shard is the multi-queue demultiplexing engine: RSS-style flow
// steering with the keyed tuple hash spreads inbound packets across N
// independent shards, each owning its own demuxer discipline, its own
// timer wheel, and its own single-writer telemetry observer — no shared
// mutable state on the packet path. Cross-shard traffic (listener
// registration fan-out, connection migration after a steering rekey, and
// stale-steered frame forwarding) moves over lock-free single-producer /
// single-consumer handoff rings, each handoff validated against the
// generation of the connection's one ownership claim so a migrated PCB
// can never be resolved against a stale shard.
//
// This is the [Dov90]/EXP-PAR endgame the ROADMAP names: the paper
// demultiplexes on a uniprocessor, and the hashed table's second virtue —
// partitionability — is what lets lookup throughput scale with cores
// instead of serializing on one stack. The same decomposition pays even
// on one core: each shard's table holds 1/N of the connection
// population, so its chain walks (and its cache working set) shrink
// proportionally, which is the paper's C(N) argument applied per shard.
package shard

import "sync/atomic"

// Ring is a lock-free single-producer / single-consumer queue over a
// power-of-two buffer. Exactly one goroutine may Push and exactly one
// may Pop; under that contract every operation is wait-free and the
// only coherence traffic on the fast path is the occasional refresh of
// the cached peer index (the classic SPSC optimization: the producer
// re-reads the consumer's position only when the ring looks full, the
// consumer re-reads the producer's only when it looks empty).
//
// Slot contents are handed off through the release/acquire ordering of
// the index stores: a Pop that observes tail > i happens-after the Push
// that filled slot i.
//
//demux:spsc(producer=Push, consumer=Pop)
type Ring[T any] struct {
	buf  []T
	mask uint64

	// Consumer-owned line: head is the next slot to pop; cachedTail is
	// the consumer's last view of the producer's position.
	_          [64]byte
	head       atomic.Uint64 //demux:atomic
	cachedTail uint64        //demux:owned(consumer, peer=tail)

	// Producer-owned line: tail is the next slot to fill; cachedHead is
	// the producer's last view of the consumer's position.
	_          [64]byte
	tail       atomic.Uint64 //demux:atomic
	cachedHead uint64        //demux:owned(producer, peer=head)
	_          [64]byte
}

// NewRing returns an SPSC ring holding at least capacity elements
// (rounded up to a power of two, minimum 2).
func NewRing[T any](capacity int) *Ring[T] {
	n := 2
	for n < capacity {
		n <<= 1
	}
	return &Ring[T]{buf: make([]T, n), mask: uint64(n - 1)}
}

// Cap returns the ring's fixed capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Len returns the approximate number of queued elements. It is exact
// when called by the producer or the consumer between their own
// operations.
func (r *Ring[T]) Len() int {
	return int(r.tail.Load() - r.head.Load())
}

// Push enqueues v, reporting false when the ring is full. Producer side
// only.
//
//demux:hotpath
func (r *Ring[T]) Push(v T) bool {
	t := r.tail.Load()
	if t-r.cachedHead >= uint64(len(r.buf)) {
		r.cachedHead = r.head.Load()
		if t-r.cachedHead >= uint64(len(r.buf)) {
			return false
		}
	}
	r.buf[t&r.mask] = v
	r.tail.Store(t + 1)
	return true
}

// Pop dequeues the oldest element, reporting false when the ring is
// empty. Consumer side only.
//
//demux:hotpath
func (r *Ring[T]) Pop() (T, bool) {
	var zero T
	h := r.head.Load()
	if h == r.cachedTail {
		r.cachedTail = r.tail.Load()
		if h == r.cachedTail {
			return zero, false
		}
	}
	v := r.buf[h&r.mask]
	r.buf[h&r.mask] = zero // release the reference for GC
	r.head.Store(h + 1)
	return v, true
}
