package core

// Table is what every demultiplexer offers regardless of how it is
// synchronized: the seven methods Demuxer and Concurrent share. Wrappers
// and replay loops that only route packets — telemetry observers, the
// throughput harness — accept a Table so one body serves both contracts.
type Table interface {
	// Name identifies the algorithm in reports.
	Name() string

	// Insert adds a PCB. Keys must be unique; wildcard keys register
	// listeners. The PCB's Key must not change while inserted.
	Insert(p *PCB) error

	// Remove deletes the PCB with exactly this key, reporting whether it
	// was present.
	Remove(k Key) bool

	// Lookup finds the PCB for an inbound packet with the given exact key.
	// dir tells direction-sensitive algorithms whether the packet carries
	// data or is a pure acknowledgement. If no connection matches exactly,
	// the best-matching wildcard listener (if any) is returned.
	Lookup(k Key, dir Direction) Result

	// NotifySend records that a segment was transmitted on p's connection.
	// Only send-aware algorithms (SRCache) use this; others ignore it.
	NotifySend(p *PCB)

	// Len returns the number of inserted PCBs, listeners included.
	Len() int

	// Walk calls fn for every inserted PCB (listeners included) until fn
	// returns false. Iteration order is implementation-defined. A Demuxer's
	// PCB set must not be mutated during the walk; a Concurrent walks
	// per-chain snapshots — fn never sees a torn chain, but mutations
	// concurrent with the walk may or may not be visible — and fn must not
	// call back into the table (lock-based disciplines hold their chain
	// lock across the callback).
	Walk(fn func(*PCB) bool)
}

// Concurrent is the goroutine-safe demultiplexer contract. It differs from
// Demuxer in how statistics are read, and deliberately so: a bare
// single-writer table has Stats() *Stats, not Snapshot() Stats, so it
// cannot be handed to a multi-worker harness by mistake.
//
// Snapshot folds whatever per-chain counters the discipline
// maintains into one Stats at the moment of the call. A snapshot taken
// while lookups are in flight is a consistent total — every completed
// lookup is counted exactly once — but two counters read nanoseconds apart
// may straddle an update; callers must not expect cross-field identities
// (Hits+Misses == Lookups, say) to hold exactly until the table is
// quiescent. Snapshots are monotonic: a later quiescent snapshot includes
// everything an earlier one did.
type Concurrent interface {
	Table
	Snapshot() Stats
}

// Merge folds another table's statistics into s, as if every lookup o
// recorded had been recorded by s.
func (s *Stats) Merge(o Stats) {
	s.Lookups += o.Lookups
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.WildcardHits += o.WildcardHits
	s.Examined += o.Examined
	if o.MaxExamined > s.MaxExamined {
		s.MaxExamined = o.MaxExamined
	}
}
