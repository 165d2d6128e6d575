// Connection-lifecycle timers. Each Stack owns a virtual-time timer
// wheel (internal/timer) keyed on the same float64 clock the frag and
// sim packages use, and Stack.Tick(now) advances it. Three timer
// families hang off the wheel:
//
//   - Retransmission: every sequence-consuming send arms a per-connection
//     timer; on expiry the retained frame is re-queued and the timeout
//     doubles (exponential backoff, capped), until an acknowledgement
//     quenches it or the max-retry limit aborts the connection.
//   - SYN_RCVD give-up: a passive open that never completes its handshake
//     is reaped after SynRcvdTimeout, releasing its listener backlog slot
//     — the flood defence that keeps abandoned half-open PCBs from
//     squatting in the lookup structures forever.
//   - TIME_WAIT 2MSL: the active closer's linger expires on its own,
//     removing the PCB from the demultiplexer without a manual
//     ReapTimeWait sweep.
//
// Timer callbacks run inside Tick, on the goroutine that owns the Stack.
// Arming one allocates nothing: the callbacks are the plain functions at
// the bottom of this file, each handed its Conn as the timer's subject
// (the Conn holds its owning Stack), and the wheel recycles the timer's
// storage. The two handles live in the Conn's txState, which the Conn
// holds only while a timer is pending or a segment unacknowledged. Every
// path that ends a timer (the fire, the acknowledgement, teardown,
// Extract) clears its handle, and a handle left stale would still be
// harmless: the wheel never lets one act on a recycled node. No record
// goes back to the free list while a timer on it is pending.
package engine

import (
	"tcpdemux/internal/core"
	"tcpdemux/internal/timer"
)

// Lifecycle timer constants; the three Default* values are overridable
// per Stack through SetTimers. Values are virtual seconds.
const (
	// timerTick is the wheel granularity: 1 ms, fine enough to resolve
	// the engine's smallest RTO against the coarse 2MSL clock.
	timerTick = 1e-3
	// DefaultRTO is the initial retransmission timeout.
	DefaultRTO = 1.0
	// DefaultMaxRetries bounds consecutive unacknowledged retransmissions
	// of one segment before the connection is aborted.
	DefaultMaxRetries = 8
	// DefaultMSL is the maximum segment lifetime; TIME_WAIT lingers 2×MSL
	// (RFC 793 suggests 2 minutes per MSL; simulations want it shorter).
	DefaultMSL = 30.0
	// SynRcvdTimeout is how long a half-open (SYN_RCVD) PCB may wait for
	// the handshake-completing ACK — BSD's classic 75 s
	// connection-establishment timer. Nothing varies it, so it is not a
	// per-Stack setting.
	SynRcvdTimeout = 75.0
	// rtoBackoffCap bounds the exponential backoff shift, so the longest
	// interval is RTO × 2^rtoBackoffCap.
	rtoBackoffCap = 6
)

// Tick advances the stack's virtual clock to now, firing every lifecycle
// timer whose deadline has passed: due retransmissions are re-queued on
// the outbox (collect them with Drain), expired half-open PCBs release
// their backlog slots, and TIME_WAIT PCBs past 2MSL leave the
// demultiplexer. Ticking backwards is a no-op.
func (s *Stack) Tick(now float64) {
	if now <= s.now {
		return
	}
	// Advance before publishing s.now: while callbacks run, clock() must
	// read the wheel's in-progress tick (the fire time), not the target,
	// or every timer rearmed from a callback would drift late.
	s.wheel.Advance(now)
	s.now = now
}

// clock returns the stack's current virtual time as timer callbacks and
// packet handlers should see it: the wheel's position while an Advance is
// in progress, the last Tick otherwise.
func (s *Stack) clock() float64 {
	if w := s.wheel.Now(); w > s.now {
		return w
	}
	return s.now
}

// Heartbeat arms a self-rearming timer on the stack's lifecycle wheel:
// fn fires every interval virtual seconds for as long as the stack's
// clock keeps advancing. Because the beat lives on the stack's own
// wheel, it stops exactly when the stack stops Ticking — which is what
// lets a supervisor (the internal/shard watchdog) distinguish a crashed
// shard, whose clock froze, from an idle one, whose clock still beats.
// Like every lifecycle timer, fn runs inside Tick.
func (s *Stack) Heartbeat(interval float64, fn func(now float64)) {
	(&heartbeat{s: s, interval: interval, fn: fn}).arm()
}

// heartbeat is the subject of a Heartbeat's self-rearming timer.
type heartbeat struct {
	s        *Stack
	interval float64
	fn       func(now float64)
}

func (hb *heartbeat) arm() {
	hb.s.wheel.Schedule(hb.s.clock()+hb.interval, beat, hb)
}

func beat(now float64, arg any) {
	hb := arg.(*heartbeat)
	hb.fn(now)
	hb.arm()
}

// Now returns the stack's current virtual time (the last Tick).
func (s *Stack) Now() float64 {
	return s.now
}

// PendingTimers returns the number of live lifecycle timers, for tests
// and instrumentation.
func (s *Stack) PendingTimers() int {
	return s.wheel.Pending()
}

// stopTimer cancels the timer behind one of a Conn's handles, if it is
// still pending, and clears the handle.
func stopTimer(t *timer.Timer) {
	t.Cancel()
	*t = timer.Timer{}
}

// requeueUnacked puts the connection's retained frame back on the outbox.
func (s *Stack) requeueUnacked(c *Conn) {
	s.emit(c.tx.unacked)
	s.demux.NotifySend(&c.pcb)
}

// armRetransmit (re)schedules the retransmission timer for the
// connection's retained segment at the current backoff interval.
func (s *Stack) armRetransmit(c *Conn) {
	t := c.tx
	t.rtx.Cancel()
	shift := min(t.retries, rtoBackoffCap)
	delay := s.rto * float64(uint64(1)<<shift)
	t.rtx = s.wheel.Schedule(s.clock()+delay, retransmitFired, c)
}

// retransmitExpired is the retransmission timer body: re-queue and back
// off, or abort at the retry limit. The timer is pending only while its
// segment is unacknowledged (the acknowledgement and teardown stop it), so
// there is always a segment to re-queue.
func (s *Stack) retransmitExpired(c *Conn) {
	t := c.tx
	if int(t.retries) >= s.maxRetries {
		s.tel.Aborts.Inc()
		s.tel.TimerFires.Inc()
		s.teardown(c)
		return
	}
	t.retries++
	s.tel.Retransmits.Inc()
	s.tel.TimerFires.Inc()
	s.requeueUnacked(c)
	s.armRetransmit(c)
}

// armSynRcvdExpiry starts the half-open give-up clock on a freshly
// spawned SYN_RCVD connection. If the handshake has not completed when it
// fires, the connection is reaped and its backlog slot released.
func (s *Stack) armSynRcvdExpiry(c *Conn) {
	t := s.txOf(c)
	t.life.Cancel()
	t.life = s.wheel.Schedule(s.clock()+SynRcvdTimeout, synRcvdFired, c)
}

// armTimeWait starts (or restarts, for a re-acknowledged FIN) the 2MSL
// clock on a TIME_WAIT connection. When it fires the connection leaves
// the demultiplexer.
func (s *Stack) armTimeWait(c *Conn) {
	t := s.txOf(c)
	t.life.Cancel()
	t.life = s.wheel.Schedule(s.clock()+2*s.msl, timeWaitFired, c)
}

// The three timer callbacks. Each receives the Conn it was armed for and
// runs on the Conn's owning Stack (Adopt re-homes that, and Extract
// cancels the timers first, so a timer only ever fires on the Stack that
// armed it), clearing the handle that just fired before doing the
// timer's work. A pending timer keeps its Conn's txState, so c.tx is set
// when one fires.

func retransmitFired(_ float64, arg any) {
	c := arg.(*Conn)
	c.tx.rtx = timer.Timer{}
	c.stack.retransmitExpired(c)
}

func synRcvdFired(_ float64, arg any) {
	c := arg.(*Conn)
	c.tx.life = timer.Timer{}
	if c.pcb.State != core.StateSynRcvd {
		return
	}
	s := c.stack
	s.tel.SynExpired.Inc()
	s.tel.TimerFires.Inc()
	s.teardown(c)
}

func timeWaitFired(_ float64, arg any) {
	c := arg.(*Conn)
	c.tx.life = timer.Timer{}
	if c.pcb.State != core.StateTimeWait {
		return
	}
	s := c.stack
	s.tel.TimeWaitExpired.Inc()
	s.tel.TimerFires.Inc()
	s.teardown(c)
}
