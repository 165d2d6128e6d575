// Metric bundles: the glue between the registry and the structures
// under internal/core, internal/engine, internal/shard
// and internal/server.
//
// The demuxers themselves stay untouched — a lookup's core.Result is
// observed into a DemuxMetrics bundle by its caller, directly or through
// a LocalDemux wrapper, so an uninstrumented table pays nothing.
package telemetry

import (
	"fmt"

	"tcpdemux/internal/core"
)

// Lookup outcomes, the index into DemuxMetrics' per-outcome histograms.
const (
	outcomeHit = iota
	outcomeFound
	outcomeMiss
	outcomeWildcard
	outcomeCount
)

// outcomeOf classifies a lookup result. Unlike core.Stats.Record, which
// keeps overlapping tallies, the classes are mutually exclusive (miss,
// else wildcard match, else cache hit, else plain chain hit) so the
// per-outcome counts sum to the lookup count.
//
//demux:hotpath
func outcomeOf(r core.Result) int {
	switch {
	case r.PCB == nil:
		return outcomeMiss
	case r.Wildcard:
		return outcomeWildcard
	case r.CacheHit:
		return outcomeHit
	}
	return outcomeFound
}

// DemuxMetrics is the per-discipline lookup instrument bundle: one
// examined-PCBs histogram per lookup outcome, labeled by discipline and
// outcome. Fusing the outcome into the histogram choice means a lookup
// pays one histogram update instead of a histogram update plus a
// classification counter. The per-outcome counts (cache hits, misses,
// wildcard matches) fall out of the histogram counts for free, and the
// conditional distributions tell the paper's story directly: misses walk
// the whole chain, cache hits stop at the head.
type DemuxMetrics struct {
	h [outcomeCount]*Histogram
}

// NewDemuxMetrics registers (or finds) the demux metric family for one
// discipline label.
func NewDemuxMetrics(r *Registry, discipline string) *DemuxMetrics {
	m := &DemuxMetrics{}
	for o, outcome := range [outcomeCount]string{
		outcomeHit:      "hit",
		outcomeFound:    "found",
		outcomeMiss:     "miss",
		outcomeWildcard: "wildcard",
	} {
		m.h[o] = r.Histogram("demux_examined_pcbs",
			L("discipline", discipline), L("outcome", outcome))
	}
	return m
}

// Observe folds one lookup result into the bundle.
//
//demux:hotpath
func (m *DemuxMetrics) Observe(r core.Result) {
	m.h[outcomeOf(r)].Observe(uint64(r.Examined))
}

// ExaminedSnapshot merges the per-outcome histograms into the overall
// examined-PCBs distribution for the discipline.
func (m *DemuxMetrics) ExaminedSnapshot() HistogramSnapshot {
	merged := HistogramSnapshot{
		Name:   "demux_examined_pcbs",
		Labels: m.h[outcomeFound].labels[:1:1], // discipline only
		Bucket: make([]uint64, histBuckets),
	}
	for _, h := range m.h {
		s := h.Snapshot()
		merged.Count += s.Count
		merged.Sum += s.Sum
		if s.Max > merged.Max {
			merged.Max = s.Max
		}
		for i, c := range s.Bucket {
			merged.Bucket[i] += c
		}
	}
	return merged
}

// Lookups returns the total observed lookup count.
func (m *DemuxMetrics) Lookups() uint64 { return m.ExaminedSnapshot().Count }

// Hits returns the observed cache-hit count.
func (m *DemuxMetrics) Hits() uint64 { return m.h[outcomeHit].Snapshot().Count }

// Misses returns the observed miss count.
func (m *DemuxMetrics) Misses() uint64 { return m.h[outcomeMiss].Snapshot().Count }

// WildcardHits returns the observed wildcard-match count.
func (m *DemuxMetrics) WildcardHits() uint64 { return m.h[outcomeWildcard].Snapshot().Count }

// StackMetrics is the engine.Stack instrument bundle: per-reason drop
// counters, the SYN-cookie handshake counters, and the lifecycle-timer
// counters, all homed on one registry so they appear in the same
// snapshot as the demux histograms.
type StackMetrics struct {
	reg *Registry

	DroppedBadChecksum *Counter
	DroppedBadFrame    *Counter
	DroppedNoRoute     *Counter
	DroppedNoListener  *Counter
	DroppedRST         *Counter
	DroppedBacklogFull *Counter
	DroppedBadCookie   *Counter

	CookiesSent     *Counter
	CookiesAccepted *Counter
	SynDrops        *Counter

	Retransmits     *Counter
	Aborts          *Counter
	SynExpired      *Counter
	TimeWaitExpired *Counter
	TimerFires      *Counter
}

// NewStackMetrics registers the engine metric family on r.
func NewStackMetrics(r *Registry) *StackMetrics {
	drop := func(reason string) *Counter {
		return r.Counter("engine_dropped_total", L("reason", reason))
	}
	return &StackMetrics{
		reg:                r,
		DroppedBadChecksum: drop("bad-checksum"),
		DroppedBadFrame:    drop("bad-frame"),
		DroppedNoRoute:     drop("no-route"),
		DroppedNoListener:  drop("no-listener"),
		DroppedRST:         drop("rst"),
		DroppedBacklogFull: drop("backlog-full"),
		DroppedBadCookie:   drop("bad-cookie"),
		CookiesSent:        r.Counter("engine_cookies_sent_total"),
		CookiesAccepted:    r.Counter("engine_cookies_accepted_total"),
		SynDrops:           r.Counter("engine_syn_drops_total"),
		Retransmits:        r.Counter("engine_timer_retransmits_total"),
		Aborts:             r.Counter("engine_timer_aborts_total"),
		SynExpired:         r.Counter("engine_timer_syn_expired_total"),
		TimeWaitExpired:    r.Counter("engine_timer_time_wait_expired_total"),
		TimerFires:         r.Counter("engine_timer_fires_total"),
	}
}

// Registry returns the registry the bundle is homed on.
func (m *StackMetrics) Registry() *Registry { return m.reg }

// ShardSetMetrics is the sharded-engine instrument bundle: the
// full-backlog event counter, the per-reason shed ledger behind the
// graceful-degradation contract ("every lost packet is attributed to
// exactly one reason"), the failure-domain counters (drains, drained
// connections, salvaged frames), and the watchdog's per-shard health
// gauges.
type ShardSetMetrics struct {
	// InboxFull counts how often a shard's bounded backlog refused a frame.
	InboxFull *Counter

	// Per-reason shed ledger (shard_shed_total{reason=...}). inbox-full
	// sheds are frames actually lost (TCP's retransmission recovers
	// them); handoff-full sheds are migrations a wedged destination
	// refused (the connection keeps working where it is); backlog-full
	// mirrors the shards' engine-level backlog drops into the same family
	// so the degradation ladder reads off one metric.
	ShedInboxFull   *Counter
	ShedHandoffFull *Counter
	ShedBacklogFull *Counter

	// Failure-domain counters.
	Drains       *Counter
	DrainedConns *Counter
	Salvaged     *Counter

	// Health is one gauge per shard (shard_health_state{shard="i"}),
	// carrying the numeric HealthState; Degraded counts shards currently
	// limping (degraded or worse), the operator's one-look signal; and
	// DrainRecovery records the latest drain's recovery latency in
	// virtual seconds (last observed progress on the sick shard to drain
	// completion).
	Health        []*Gauge
	Degraded      *Gauge
	DrainRecovery *Gauge
}

// NewShardSetMetrics registers the sharded-engine metric family for a
// set of `shards` queues on r.
func NewShardSetMetrics(r *Registry, shards int) *ShardSetMetrics {
	shed := func(reason string) *Counter {
		return r.Counter("shard_shed_total", L("reason", reason))
	}
	m := &ShardSetMetrics{
		InboxFull:       r.Counter("shard_inbox_full_total"),
		ShedInboxFull:   shed("inbox-full"),
		ShedHandoffFull: shed("handoff-full"),
		ShedBacklogFull: shed("backlog-full"),
		Drains:          r.Counter("shard_drains_total"),
		DrainedConns:    r.Counter("shard_drained_connections_total"),
		Salvaged:        r.Counter("shard_salvaged_frames_total"),
		Degraded:        r.Gauge("shard_degraded_shards"),
		DrainRecovery:   r.Gauge("shard_drain_recovery_seconds"),
	}
	for i := 0; i < shards; i++ {
		m.Health = append(m.Health,
			r.Gauge("shard_health_state", L("shard", fmt.Sprintf("%d", i))))
	}
	return m
}

// SetHealth publishes shard i's health state (as its numeric code).
func (m *ShardSetMetrics) SetHealth(i int, state float64) {
	if m == nil || i < 0 || i >= len(m.Health) {
		return
	}
	m.Health[i].Set(state)
}

// ServerMetrics is the real-socket frontend's instrument bundle: the
// connection conservation ledger (every accepted kernel connection ends
// in exactly one of served, shed, or shutdown-drained, so
// server_accepted_total == served + shed + drained once the server has
// stopped), the live-connection gauge, and the transaction/byte volume
// counters. Shed is per-reason, mirroring the shard layer's
// shard_shed_total{reason} family one level up: the frontend sheds
// connections (a slow consumer's write queue overflowing, a socket
// error, a protocol violation) where the shard layer sheds frames.
type ServerMetrics struct {
	Accepted *Counter
	Active   *Gauge
	Served   *Counter
	Drained  *Counter

	// Per-reason connection sheds (server_shed_total{reason=...}).
	ShedWriteBacklog *Counter
	ShedSocketError  *Counter
	ShedProtocol     *Counter
	ShedHandshake    *Counter
	ShedEngineReset  *Counter

	Txns     *Counter
	BadTxns  *Counter
	BytesIn  *Counter
	BytesOut *Counter
	// FramesSynth counts wire frames the frontend synthesized into the
	// StackSet (SYN/ACK/data/FIN/RST) — the bridge's ingress volume.
	FramesSynth *Counter
}

// NewServerMetrics registers the frontend metric family on r.
func NewServerMetrics(r *Registry) *ServerMetrics {
	shed := func(reason string) *Counter {
		return r.Counter("server_shed_total", L("reason", reason))
	}
	return &ServerMetrics{
		Accepted:         r.Counter("server_accepted_total"),
		Active:           r.Gauge("server_active_connections"),
		Served:           r.Counter("server_served_total"),
		Drained:          r.Counter("server_drained_total"),
		ShedWriteBacklog: shed("write-backlog"),
		ShedSocketError:  shed("socket-error"),
		ShedProtocol:     shed("protocol"),
		ShedHandshake:    shed("handshake"),
		ShedEngineReset:  shed("engine-reset"),
		Txns:             r.Counter("server_txns_total"),
		BadTxns:          r.Counter("server_bad_txns_total"),
		BytesIn:          r.Counter("server_bytes_in_total"),
		BytesOut:         r.Counter("server_bytes_out_total"),
		FramesSynth:      r.Counter("server_frames_synthesized_total"),
	}
}
