// Instrumentation wrappers and metric bundles: the glue between the
// registry and the structures under internal/core, internal/rcu,
// internal/parallel, internal/overload, and internal/engine.
//
// The demuxers themselves stay untouched — instrumentation is a wrapper
// that observes each lookup's core.Result into a DemuxMetrics bundle
// (and optionally the flight recorder), so an uninstrumented table pays
// nothing and an instrumented one pays a couple of uncontended atomic
// adds per lookup.
package telemetry

import (
	"fmt"

	"tcpdemux/internal/core"
)

// DemuxMetrics is the per-discipline lookup instrument bundle: one
// examined-PCBs histogram per lookup outcome, labeled by discipline and
// outcome. Fusing the hit/miss classification into the histogram choice
// means Observe pays exactly one atomic add per lookup (the histogram's
// packed bucket word) instead of a histogram update plus a separate
// classification counter — that second uncontended RMW alone was worth
// ~7ns/op on BenchmarkParallelTPCA, well over the 5% overhead budget.
// The per-outcome counts (cache hits, misses, wildcard matches) fall out
// of the histogram counts for free, and the conditional distributions
// tell the paper's story directly: misses walk the whole chain, cache
// hits stop at the head.
type DemuxMetrics struct {
	hit      *Histogram
	found    *Histogram
	miss     *Histogram
	wildcard *Histogram
}

// NewDemuxMetrics registers (or finds) the demux metric family for one
// discipline label.
func NewDemuxMetrics(r *Registry, discipline string) *DemuxMetrics {
	h := func(outcome string) *Histogram {
		return r.Histogram("demux_examined_pcbs",
			L("discipline", discipline), L("outcome", outcome))
	}
	return &DemuxMetrics{
		hit:      h("hit"),
		found:    h("found"),
		miss:     h("miss"),
		wildcard: h("wildcard"),
	}
}

// Observe folds one lookup result into the bundle. Unlike
// core.Stats.Record, which keeps overlapping tallies, the outcome
// classes here are mutually exclusive (miss, else wildcard match, else
// cache hit, else plain chain hit) so the per-outcome counts sum to the
// lookup count.
//
//demux:hotpath
func (m *DemuxMetrics) Observe(r core.Result) {
	h := m.found
	switch {
	case r.PCB == nil:
		h = m.miss
	case r.Wildcard:
		h = m.wildcard
	case r.CacheHit:
		h = m.hit
	}
	h.Observe(uint64(r.Examined))
}

// ExaminedSnapshot merges the per-outcome histograms into the overall
// examined-PCBs distribution for the discipline.
func (m *DemuxMetrics) ExaminedSnapshot() HistogramSnapshot {
	merged := HistogramSnapshot{
		Name:   "demux_examined_pcbs",
		Labels: m.found.labels[:1:1], // discipline only
		Bucket: make([]uint64, histBuckets),
	}
	for _, h := range []*Histogram{m.hit, m.found, m.miss, m.wildcard} {
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
func (m *DemuxMetrics) Lookups() uint64 {
	return m.hit.Snapshot().Count + m.found.Snapshot().Count +
		m.miss.Snapshot().Count + m.wildcard.Snapshot().Count
}

// Hits returns the observed cache-hit count.
func (m *DemuxMetrics) Hits() uint64 { return m.hit.Snapshot().Count }

// Misses returns the observed miss count.
func (m *DemuxMetrics) Misses() uint64 { return m.miss.Snapshot().Count }

// WildcardHits returns the observed wildcard-match count.
func (m *DemuxMetrics) WildcardHits() uint64 { return m.wildcard.Snapshot().Count }

// chainIndexer is implemented by chain-hashed demuxers that can name the
// chain a key maps to (core.SequentHash, rcu.Demuxer); the wrapper uses
// it to fill flight events' Chain field.
type chainIndexer interface {
	ChainIndexOf(core.Key) int
}

// observed is the one instrumentation body behind Demux and Concurrent:
// it embeds the wrapped table, so the six methods it does not observe are
// promoted untouched, and overrides Lookup and LookupBatch to record every
// result into a DemuxMetrics bundle and (optionally) a FlightRecorder. The
// wrapper is behaviourally transparent: the inner table's own statistics
// are untouched and remain the source of truth for existing reports.
type observed struct {
	core.Table
	m      *DemuxMetrics
	rec    *FlightRecorder
	now    func() float64
	chains chainIndexer // nil when the table has no chain notion
}

func newObserved(inner core.Table, m *DemuxMetrics, rec *FlightRecorder, now func() float64) observed {
	ci, _ := inner.(chainIndexer)
	return observed{Table: inner, m: m, rec: rec, now: now, chains: ci}
}

// Lookup observes the inner table's result on the way out.
//
//demux:hotpath
func (o *observed) Lookup(k core.Key, dir core.Direction) core.Result {
	r := o.Table.Lookup(k, dir)
	o.m.Observe(r)
	if o.rec != nil {
		o.recordEvent(k, dir, r)
	}
	return r
}

// LookupBatch implements core.Batcher so instrumentation never hides a
// native batcher: the train resolves through core.LookupBatch on the inner
// table and every result is observed, landing batched and per-packet
// lookups in the same metric bundle. out is reused when it has capacity.
// The observe-then-maybe-record pair is written out here and in Lookup
// rather than shared: as a helper it is two calls, past the inliner's
// budget, and the extra call per key cost the flat table's ~50 ns batch
// path 4–10 ns on the cache workload.
//
//demux:hotpath
func (o *observed) LookupBatch(keys []core.Key, dir core.Direction, out []core.Result) []core.Result {
	out = core.LookupBatch(o.Table, keys, dir, out)
	for i := range out {
		o.m.Observe(out[i])
		if o.rec != nil {
			o.recordEvent(keys[i], dir, out[i])
		}
	}
	return out
}

// recordEvent builds and records the flight event for one lookup.
//
//demux:hotpath
func (o *observed) recordEvent(k core.Key, dir core.Direction, r core.Result) {
	t := 0.0
	if o.now != nil {
		t = o.now()
	}
	chain := int32(-1)
	if o.chains != nil {
		chain = int32(o.chains.ChainIndexOf(k))
	}
	o.rec.Record(Event{
		Time:       t,
		Tuple:      k.Tuple(),
		Discipline: o.Name(),
		Chain:      chain,
		Examined:   int32(r.Examined),
		Hit:        r.CacheHit,
		Wildcard:   r.PCB != nil && r.Wildcard,
		Miss:       r.PCB == nil,
		Ack:        dir == core.DirAck,
	})
}

// Demux is an instrumented single-goroutine table: observed plus the inner
// demuxer's live Stats, which is all that separates core.Demuxer from
// core.Concurrent.
type Demux struct {
	observed
	stats *core.Stats
}

// InstrumentDemuxer wraps inner. m is required; rec may be nil to skip
// flight recording; now supplies flight events' virtual timestamps (nil
// records Time 0, leaving ordering to Seq).
func InstrumentDemuxer(inner core.Demuxer, m *DemuxMetrics, rec *FlightRecorder, now func() float64) *Demux {
	return &Demux{observed: newObserved(inner, m, rec, now), stats: inner.Stats()}
}

// Stats implements core.Demuxer (the inner demuxer's live counters).
func (d *Demux) Stats() *core.Stats { return d.stats }

// Concurrent is an instrumented goroutine-safe table. Safe for concurrent
// use when the inner table is: the metric bundle and recorder are striped.
type Concurrent struct {
	observed
	snapshot func() core.Stats
}

// InstrumentConcurrent wraps inner; rec and now are optional as in
// InstrumentDemuxer.
func InstrumentConcurrent(inner core.Concurrent, m *DemuxMetrics, rec *FlightRecorder, now func() float64) *Concurrent {
	return &Concurrent{observed: newObserved(inner, m, rec, now), snapshot: inner.Snapshot}
}

// Snapshot implements core.Concurrent (the inner table's own statistics).
func (c *Concurrent) Snapshot() core.Stats { return c.snapshot() }

var (
	_ core.Demuxer    = (*Demux)(nil)
	_ core.Concurrent = (*Concurrent)(nil)
	_ core.Batcher    = (*observed)(nil)
)

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

// OverloadMetrics is the overload-guard instrument bundle: rekey and
// migration counters plus the watchdog's chain-skew and chain-count
// gauges, labeled by table.
type OverloadMetrics struct {
	Rekeys    *Counter
	Migrated  *Counter
	ChainSkew *Gauge
	Chains    *Gauge
}

// NewOverloadMetrics registers the overload metric family for one table
// label on r.
func NewOverloadMetrics(r *Registry, table string) *OverloadMetrics {
	l := L("table", table)
	return &OverloadMetrics{
		Rekeys:    r.Counter("overload_rekeys_total", l),
		Migrated:  r.Counter("overload_migrated_pcbs_total", l),
		ChainSkew: r.Gauge("overload_chain_skew", l),
		Chains:    r.Gauge("overload_chains", l),
	}
}

// ObserveChains publishes one watchdog sample: the live chain count and
// the skew ratio (fullest chain over mean chain length; 0 for an empty
// table).
func (m *OverloadMetrics) ObserveChains(lengths []int64) {
	if m == nil {
		return
	}
	m.Chains.Set(float64(len(lengths)))
	if len(lengths) == 0 {
		m.ChainSkew.Set(0)
		return
	}
	var pop, max int64
	for _, n := range lengths {
		pop += n
		if n > max {
			max = n
		}
	}
	if pop == 0 {
		m.ChainSkew.Set(0)
		return
	}
	mean := float64(pop) / float64(len(lengths))
	m.ChainSkew.Set(float64(max) / mean)
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
