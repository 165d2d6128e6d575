// Package telemetry is the repository's observability subsystem: a
// stdlib-only metrics registry (counters, gauges, log2-bucketed
// histograms), a flight recorder of recent demultiplexing events, and
// exposition writers (Prometheus text format, JSON, and a human summary
// table).
//
// The paper's entire argument rests on one observable — PCBs examined
// per inbound packet — and the packages under internal/ each kept their
// own ad-hoc counters for it (core.Stats, the engine's drop counters).
// This package gives those counters one home so a single registry
// snapshot correlates them: examined-per-packet histograms per
// discipline next to chain-skew gauges, rekey counts, SYN-cookie
// issuance, and per-reason drops.
//
// # Hot-path contract
//
// Counter.Inc/Add and Histogram.Observe are zero-alloc. Every metric has
// one writer, the goroutine that owns the Stack, StackSet or server loop
// it measures, so a metric is plain atomic words — one per counter, a
// count and a sum per histogram bucket — and an update is one or two
// uncontended atomic adds. The atomics are for the one concurrent
// reader, the -metrics handler's snapshot. Per-lookup observation on a
// worker goroutine goes through LocalDemux, which pays plain adds and
// folds into the shared histograms on Flush. The demuxvet hotalloc
// analyzer enforces the no-allocation claim on every function marked
// //demux:hotpath.
//
// # Determinism contract
//
// Snapshot output is deterministic for deterministic input: metrics are
// sorted by name (then by canonical label encoding), histogram buckets
// have fixed bounds, and FlightRecorder.Drain returns the retained events
// in sequence order — two equal-seed runs produce byte-identical
// exposition output and byte-identical exported traces.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Label is one name=value dimension of a metric (e.g. discipline of a
// demux histogram). Labels distinguish metrics sharing a name; a metric
// is identified by its name plus its sorted label set.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metricID builds the canonical identity string for a name + label set:
// name{k1="v1",k2="v2"} with keys sorted. It doubles as the sort key that
// makes snapshots deterministic and as (most of) the Prometheus series
// name.
func metricID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// sortLabels returns a sorted copy of a label set.
func sortLabels(labels []Label) []Label {
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// Registry holds named metrics. Metric registration (Counter, Gauge,
// Histogram) is get-or-create and safe for concurrent use; the returned
// metric handles are the hot-path objects and should be cached by the
// instrumented code, not re-looked-up per packet.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter with this name and label set, creating it
// on first use. A name registered as a different metric kind panics:
// that is a programming error, not a runtime condition.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	id := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[id]; ok {
		return c
	}
	r.checkKind(id, "counter")
	c := &Counter{name: name, labels: sortLabels(labels)}
	r.counters[id] = c
	return c
}

// Gauge returns the gauge with this name and label set, creating it on
// first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	id := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[id]; ok {
		return g
	}
	r.checkKind(id, "gauge")
	g := &Gauge{name: name, labels: sortLabels(labels)}
	r.gauges[id] = g
	return g
}

// Histogram returns the log2-bucketed histogram with this name and label
// set, creating it on first use.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	id := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[id]; ok {
		return h
	}
	r.checkKind(id, "histogram")
	h := &Histogram{name: name, labels: sortLabels(labels)}
	r.hists[id] = h
	return h
}

// checkKind panics if id is already registered under another kind. The
// caller holds r.mu.
func (r *Registry) checkKind(id, want string) {
	if _, ok := r.counters[id]; ok && want != "counter" {
		panic("telemetry: " + id + " already registered as a counter")
	}
	if _, ok := r.gauges[id]; ok && want != "gauge" {
		panic("telemetry: " + id + " already registered as a gauge")
	}
	if _, ok := r.hists[id]; ok && want != "histogram" {
		panic("telemetry: " + id + " already registered as a histogram")
	}
}

// CounterSnapshot is one counter's value at snapshot time.
type CounterSnapshot struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  uint64  `json:"value"`
}

// GaugeSnapshot is one gauge's value at snapshot time.
type GaugeSnapshot struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// Snapshot is a consistent-per-metric capture of every registered
// metric, sorted by canonical metric identity. Like the parallel
// package's statistics snapshots, each metric's total counts every
// completed update exactly once, but a snapshot taken during concurrent
// traffic may straddle updates across metrics.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters"`
	Gauges     []GaugeSnapshot     `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every registered metric, deterministically ordered.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var snap Snapshot

	var cids []string
	for id := range r.counters {
		cids = append(cids, id)
	}
	sort.Strings(cids)
	for _, id := range cids {
		c := r.counters[id]
		snap.Counters = append(snap.Counters, CounterSnapshot{
			Name: c.name, Labels: c.labels, Value: c.Value(),
		})
	}

	var gids []string
	for id := range r.gauges {
		gids = append(gids, id)
	}
	sort.Strings(gids)
	for _, id := range gids {
		g := r.gauges[id]
		snap.Gauges = append(snap.Gauges, GaugeSnapshot{
			Name: g.name, Labels: g.labels, Value: g.Value(),
		})
	}

	var hids []string
	for id := range r.hists {
		hids = append(hids, id)
	}
	sort.Strings(hids)
	for _, id := range hids {
		snap.Histograms = append(snap.Histograms, r.hists[id].Snapshot())
	}
	return snap
}
