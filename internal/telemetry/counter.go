package telemetry

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing counter: one atomic word. Each
// counter has one writer (the goroutine that owns the Stack, StackSet or
// server loop it counts for); the atomic is there so the -metrics
// handler can read it while that writer runs. Inc and Add are zero-alloc.
type Counter struct {
	name   string
	labels []Label
	v      atomic.Uint64
}

// Name returns the counter's metric name.
func (c *Counter) Name() string { return c.name }

// Inc adds one.
//
//demux:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
//
//demux:hotpath
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the counter's total.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a last-value-wins float64 metric (chain skew ratio, live
// chain count), held as one atomic word.
type Gauge struct {
	name   string
	labels []Label
	bits   atomic.Uint64
}

// Name returns the gauge's metric name.
func (g *Gauge) Name() string { return g.name }

// Set stores v.
//
//demux:hotpath
func (g *Gauge) Set(v float64) {
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value (0 before any Set).
func (g *Gauge) Value() float64 {
	return math.Float64frombits(g.bits.Load())
}
