// Package afield is the atomicpub analyzer fixture: fields marked
// //demux:atomic may only be touched through atomic operations.
package afield

import "sync/atomic"

type counter struct {
	// n counts lock-free hits.
	//demux:atomic
	n uint64

	p atomic.Pointer[int] //demux:atomic

	// plain is unmarked; anything goes.
	plain int
}

func bad(c *counter) uint64 {
	c.n = 1 // want `marked //demux:atomic`
	c.n++   // want `marked //demux:atomic`
	var cp atomic.Pointer[int]
	cp = c.p // want `marked //demux:atomic`
	_ = cp
	return c.n // want `marked //demux:atomic`
}

func good(c *counter) uint64 {
	atomic.AddUint64(&c.n, 1)
	c.p.Store(new(int))
	if v := c.p.Load(); v != nil {
		return uint64(*v) + atomic.LoadUint64(&c.n)
	}
	c.plain = 3
	_ = c.plain
	return atomic.LoadUint64(&c.n)
}

func guarded(c *counter) uint64 {
	//demux:atomicguarded fixture: caller holds the table's writer lock
	return c.n
}

func reasonless(c *counter) uint64 {
	//demux:atomicguarded
	return c.n // want `waiver needs a reason`
}
