package telemetry

import (
	"testing"

	"tcpdemux/internal/core"
)

func testKey(n uint32) core.Key {
	return core.KeyFromTuple(tupleN(n))
}

func TestDemuxMetricsClassification(t *testing.T) {
	r := NewRegistry()
	m := NewDemuxMetrics(r, "test")
	pcb := core.NewPCB(testKey(1))
	m.Observe(core.Result{PCB: nil, Examined: 3})
	m.Observe(core.Result{PCB: pcb, Examined: 1, CacheHit: true})
	m.Observe(core.Result{PCB: pcb, Examined: 5, Wildcard: true})
	m.Observe(core.Result{PCB: pcb, Examined: 7})
	if m.Misses() != 1 || m.Hits() != 1 || m.WildcardHits() != 1 || m.Lookups() != 4 {
		t.Fatalf("classification off: miss=%d hit=%d wild=%d lookups=%d",
			m.Misses(), m.Hits(), m.WildcardHits(), m.Lookups())
	}
	snap := m.ExaminedSnapshot()
	if snap.Count != 4 || snap.Sum != 16 {
		t.Fatalf("examined histogram count=%d sum=%d, want 4/16", snap.Count, snap.Sum)
	}
	if len(snap.Labels) != 1 || snap.Labels[0].Key != "discipline" {
		t.Fatalf("merged snapshot should carry only the discipline label: %+v", snap.Labels)
	}
	// The per-outcome series are plain registry histograms, so they show
	// up individually in the snapshot too.
	outcomes := map[string]uint64{}
	for _, h := range r.Snapshot().Histograms {
		if h.Name == "demux_examined_pcbs" {
			for _, l := range h.Labels {
				if l.Key == "outcome" {
					outcomes[l.Value] = h.Count
				}
			}
		}
	}
	for _, o := range []string{"hit", "found", "miss", "wildcard"} {
		if outcomes[o] != 1 {
			t.Fatalf("outcome %q count %d, want 1 (%v)", o, outcomes[o], outcomes)
		}
	}
}

func TestStackMetricsRegistersDropReasons(t *testing.T) {
	r := NewRegistry()
	m := NewStackMetrics(r)
	m.DroppedNoListener.Inc()
	m.CookiesSent.Add(2)
	if m.Registry() != r {
		t.Fatalf("Registry accessor broken")
	}
	snap := r.Snapshot()
	var found bool
	for _, c := range snap.Counters {
		if c.Name == "engine_dropped_total" && len(c.Labels) == 1 &&
			c.Labels[0].Value == "no-listener" && c.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("per-reason drop counter missing from snapshot")
	}
}

func TestShardSetMetricsRegistration(t *testing.T) {
	r := NewRegistry()
	m := NewShardSetMetrics(r, 2)
	m.InboxFull.Inc()
	m.ShedHandoffFull.Add(3)
	m.SetHealth(1, 3)
	m.SetHealth(-1, 1) // out of range: no-op, not a panic
	m.SetHealth(5, 1)
	m.Degraded.Set(2)

	snap := r.Snapshot()
	counters := make(map[string]uint64)
	for _, c := range snap.Counters {
		id := c.Name
		for _, l := range c.Labels {
			id += "{" + l.Key + "=" + l.Value + "}"
		}
		counters[id] = c.Value
	}
	for id, want := range map[string]uint64{
		"shard_inbox_full_total":                1,
		"shard_shed_total{reason=inbox-full}":   0,
		"shard_shed_total{reason=handoff-full}": 3,
		"shard_shed_total{reason=backlog-full}": 0,
		"shard_drains_total":                    0,
		"shard_drained_connections_total":       0,
		"shard_salvaged_frames_total":           0,
	} {
		got, ok := counters[id]
		if !ok {
			t.Fatalf("counter %s not registered; snapshot has %v", id, counters)
		}
		if got != want {
			t.Fatalf("counter %s = %d, want %d", id, got, want)
		}
	}

	gauges := make(map[string]float64)
	for _, g := range snap.Gauges {
		id := g.Name
		for _, l := range g.Labels {
			id += "{" + l.Key + "=" + l.Value + "}"
		}
		gauges[id] = g.Value
	}
	for id, want := range map[string]float64{
		"shard_health_state{shard=0}":  0,
		"shard_health_state{shard=1}":  3,
		"shard_degraded_shards":        2,
		"shard_drain_recovery_seconds": 0,
	} {
		got, ok := gauges[id]
		if !ok {
			t.Fatalf("gauge %s not registered; snapshot has %v", id, gauges)
		}
		if got != want {
			t.Fatalf("gauge %s = %g, want %g", id, got, want)
		}
	}
}
