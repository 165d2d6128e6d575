// Connection migration between Stacks. The sharded multi-queue engine
// (internal/shard) moves a live connection from one shard's Stack to
// another when a steering rekey changes its flow assignment: the old
// shard Extracts the PCB — out of its demultiplexer, timers quenched,
// accounting unwound, but nothing torn down — and the new shard Adopts
// it, re-inserting and re-arming on its own wheel. The PCB carries its
// Conn (it is the Conn's first field), so the connection's whole engine
// state moves with it. The pair is also usable alone (tests move
// connections between two plain Stacks), but the contract is written for
// the shard engine: both stacks share one address and one virtual clock,
// and the caller guarantees no frame for the connection is delivered
// between Extract and Adopt.
package engine

import (
	"tcpdemux/internal/core"
)

// Extract removes pcb's connection from the stack without tearing it
// down: the PCB leaves the demultiplexer, its lifecycle timers are
// canceled, and its listener-backlog or TIME_WAIT accounting is unwound,
// but its TCP state, sequence numbers, handler (or, lacking one, its queue
// of unread payloads) and txState (the retransmission buffer and retry
// count) all survive intact for a subsequent Adopt. The caller hands over
// the PCB itself (from PCBs or a Walk), so nothing searches the table for
// it. Listening (wildcard) PCBs cannot be extracted — every shard owns its
// own listener — and a PCB that is closed or not in this stack's table
// returns false.
//
// An ephemeral local port stays allocated on this stack: migration is a
// server-side affair and the port namespace belongs to the stack that
// allocated it.
func (s *Stack) Extract(pcb *core.PCB) bool {
	c, ok := pcb.UserData.(*Conn)
	if !ok || c.stack != s || pcb.State == core.StateClosed || !s.demux.Remove(pcb.Key) {
		return false
	}
	s.unwind(c)
	return true
}

// Adopt inserts a previously Extracted PCB into this stack, taking over
// every responsibility the old stack released: the connection's Conn
// re-homes here (its Send/Close/Receive now run against this stack),
// half-open and TIME_WAIT accounting resume, and lifecycle timers are
// re-armed on this stack's wheel. Re-arming restarts each timer's full
// interval — a migrated half-open connection gets a fresh SYN_RCVD
// give-up clock, a TIME_WAIT linger restarts its 2MSL — which only ever
// lengthens a deadline, never expires one early. A retransmission timer
// re-arms at the backoff interval its retry count had reached. The
// txState the connection carried over goes back to this stack's free list
// when it next falls idle.
func (s *Stack) Adopt(pcb *core.PCB) error {
	if err := s.demux.Insert(pcb); err != nil {
		return err
	}
	c := pcb.UserData.(*Conn)
	c.stack = s
	switch pcb.State {
	case core.StateSynRcvd:
		s.halfOpen[pcb.Key.LocalPort]++
		s.armSynRcvdExpiry(c)
	case core.StateTimeWait:
		s.timeWaits++
		s.armTimeWait(c)
	}
	if c.tx != nil && c.tx.unacked != nil {
		s.armRetransmit(c)
	}
	return nil
}

// SetTimers sets the lifecycle timers in one call; a zero or negative
// value keeps that timer's engine default. It exists so any LossyServer —
// a single Stack or a sharded set fanning the values to every shard — can
// be configured uniformly by the lossy harness.
func (s *Stack) SetTimers(rto float64, maxRetries int, msl float64) {
	s.rto, s.maxRetries, s.msl = DefaultRTO, DefaultMaxRetries, DefaultMSL
	if rto > 0 {
		s.rto = rto
	}
	if maxRetries > 0 {
		s.maxRetries = maxRetries
	}
	if msl > 0 {
		s.msl = msl
	}
}

// SetBacklog sets the per-listener half-open limit (zero or negative
// restores DefaultBacklog).
func (s *Stack) SetBacklog(n int) {
	if n <= 0 {
		n = DefaultBacklog
	}
	s.backlog = n
}

// LifecycleCounters returns the stack's timer-driven lifecycle totals: a
// view over the telemetry counters, like Stats.
func (s *Stack) LifecycleCounters() (retransmits, aborts, synExpired, timeWaitExpired uint64) {
	t := s.tel
	return t.Retransmits.Value(), t.Aborts.Value(), t.SynExpired.Value(), t.TimeWaitExpired.Value()
}
