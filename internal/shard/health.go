// Shard failure domains: the fault-injection surface, the health
// watchdog, and the live drain that fails a sick shard over to the
// survivors.
//
// The paper's multi-queue cost model silently assumes every queue keeps
// consuming. This file is what happens when one stops. Three faults
// cover the ways a real per-CPU queue dies or refuses work:
//
//   - Crash: the shard's event loop is gone. Its virtual clock freezes
//     (StackSet.Tick skips it), so the heartbeat armed on its own timer
//     wheel stops beating — which is exactly how the watchdog tells a
//     crashed shard from an idle one.
//   - Stall: the clock still advances (heartbeats keep coming) but the
//     consumer never pops its inbox; queued frames age in place. The
//     watchdog catches this through the progress counter instead.
//   - Wedge: the shard's queues refuse pushes (a producer-side failure).
//     The shard itself is alive, so this degrades — sheds, counted —
//     rather than triggering a drain.
//
// Detection drives a live drain (FailOver): every PCB on the sick shard
// is taken out of its table and put in a survivor's, the survivor chosen
// by folding the steering hash over the live shards, and recorded in the
// set's away map, which is how later frames find it whatever the fold
// says by then. Frames still queued on the dead inbox are salvaged FIFO
// and re-delivered after the PCBs land, with every other backlog, so none
// reaches a connection before it has moved. Connections are never lost by
// the control plane: a wedged survivor takes a drain's movers all the same.
//
// Degradation is a ladder, not a cliff: a full or wedged edge sheds the
// single frame or forgoes the single migration at hand, counts it against
// exactly one reason (inbox-full, handoff-full, backlog-full), and marks
// the shard Degraded until a check passes with no new sheds.
// The Accounting ledger proves conservation: every frame handed to
// Deliver is absorbed, consumed, shed-with-reason, or still queued.
package shard

import (
	"fmt"

	"tcpdemux/internal/hashfn"
	"tcpdemux/internal/wire"
)

// HealthState is the watchdog's verdict on one shard. States only ever
// move up the ladder except Degraded, which clears when a health check
// passes without new sheds; Drained is terminal for the set's lifetime.
type HealthState int

const (
	// HealthHealthy: beating, consuming, not shedding.
	HealthHealthy HealthState = iota
	// HealthDegraded: alive but shedding — some full edge refused work
	// since the last check.
	HealthDegraded
	// HealthSick: the watchdog detected a frozen clock or a consumer
	// that stopped making progress; a drain is due.
	HealthSick
	// HealthDrained: the shard's connections were failed over to the
	// survivors; the shard is decommissioned.
	HealthDrained
)

// String names the state for reports.
func (h HealthState) String() string {
	switch h {
	case HealthHealthy:
		return "healthy"
	case HealthDegraded:
		return "degraded"
	case HealthSick:
		return "sick"
	case HealthDrained:
		return "drained"
	}
	return fmt.Sprintf("health(%d)", int(h))
}

// FaultVerdict is what a fault function decrees for one shard at one
// instant. The zero verdict is "no fault".
type FaultVerdict struct {
	// Crash freezes the shard: no Tick (so its timer wheel and heartbeat
	// stop), no consumption. Frames steered at it queue until the inbox
	// fills, then shed.
	Crash bool
	// Stall keeps the clock running but stops the consumer: heartbeats
	// continue, the inbox backlog ages.
	Stall bool
	// Wedge makes the shard refuse what is pushed at it: frames for its
	// inbox, and connections a rekey would migrate onto it.
	Wedge bool
}

// FaultFunc is the injection point: consulted per shard per event under
// virtual time. Callers install a closure over their fault window.
// Evaluated from the set's single control goroutine only.
type FaultFunc func(shard int, now float64) FaultVerdict

// Watchdog constants. Times are virtual seconds.
const (
	// DefaultHeartbeatInterval is how often each shard's wheel proves the
	// clock is advancing.
	DefaultHeartbeatInterval = 0.05
	// DefaultStallThreshold is how stale a heartbeat (crash) or a
	// progress mark (stall) may go before the shard is declared sick. It
	// is sized like an RTO: long enough that an idle-but-healthy shard
	// never trips it, short enough that connections ride out the outage
	// on their retransmission timers.
	DefaultStallThreshold = 0.5
)

// shardHealth is the watchdog's per-shard ledger. All fields are
// touched only from the set's single control goroutine (the Deliver /
// Tick / control-plane caller); the heartbeat callback also runs there,
// inside the shard's own Tick.
type shardHealth struct {
	state HealthState
	// hbTimer records that the real heartbeat is armed on the shard's
	// wheel; lastBeat is the newest beat (baselined to the first time
	// the watchdog saw the shard, so a set whose clock starts late does
	// not instantly condemn every shard).
	hbTimer  bool
	lastBeat float64
	// consumed counts frames handed to this shard's Stack, directly or
	// off its backlog; the watchdog compares it against progressMark to
	// detect a consumer that stopped while its inbox is non-empty.
	consumed     uint64
	progressMark uint64
	lastProgress float64
	// sheds vs shedMark drives the Degraded transition; backlogMark is
	// the high-water fold of the shard's engine-level backlog drops into
	// the set's shed ledger.
	sheds       uint64
	shedMark    uint64
	backlogMark uint64
}

// SetFaultFunc installs (or clears, with nil) the fault injection
// function. A control-plane call, made by the set's owner like Rekey.
func (set *StackSet) SetFaultFunc(f FaultFunc) { set.fault = f }

// Health returns shard i's current health state.
func (set *StackSet) Health(i int) HealthState { return set.health[i].state }

// Drained reports whether shard i has been decommissioned by a drain.
func (set *StackSet) Drained(i int) bool { return set.health[i].state == HealthDrained }

// verdict evaluates the fault function for shard i at the set's current
// virtual time.
func (set *StackSet) verdict(i int) FaultVerdict {
	if set.fault == nil {
		return FaultVerdict{}
	}
	return set.fault(i, set.now)
}

// alive reports whether shard i can still accept work: sick and drained
// shards cannot.
func (set *StackSet) alive(i int) bool {
	return set.health[i].state != HealthSick && set.health[i].state != HealthDrained
}

// liveCount counts shards that can still accept work.
func (set *StackSet) liveCount() int {
	n := 0
	for i := range set.health {
		if set.alive(i) {
			n++
		}
	}
	return n
}

// ensureHeartbeat arms shard i's liveness beat on its own timer wheel.
// The beat lives on the shard's wheel precisely so that a frozen clock
// stops beating; the callback runs inside the shard's Tick and only
// stamps the ledger.
func (set *StackSet) ensureHeartbeat(i int, now float64) {
	h := &set.health[i]
	if h.hbTimer {
		return
	}
	h.hbTimer = true
	if now > h.lastBeat {
		h.lastBeat = now
	}
	set.shards[i].Heartbeat(DefaultHeartbeatInterval, func(at float64) {
		h.lastBeat = at
	})
}

// rescueShard picks the surviving shard for a tuple by folding the
// steering hash over the live shards. FailOver's drain puts a dead shard's
// connections where this fold says, and Deliver's re-route sends a fresh
// SYN for a dead shard there too. The fold's answer changes whenever the
// live set does, so a connection it placed is written to away before that
// (resettle).
//
//demux:hotpath
func (set *StackSet) rescueShard(tup wire.Tuple) (int, bool) {
	live := set.liveCount()
	if live == 0 {
		return 0, false
	}
	// The k-th live shard, in shard order.
	k := hashfn.ChainIndex(set.steer.key.Hash(tup), live)
	for i := range set.health {
		if set.alive(i) {
			if k == 0 {
				return i, true
			}
			k--
		}
	}
	return 0, false
}

// shedInboxFrame records one frame lost at shard idx's inbox edge.
func (set *StackSet) shedInboxFrame(idx int) {
	set.m.ShedInboxFull.Inc()
	set.health[idx].sheds++
}

// checkHealth is the watchdog pass, run at the end of every Tick: fold
// engine-level backlog drops into the shed ledger, detect frozen clocks
// (stale heartbeat) and stuck consumers (non-empty inbox with no
// consumption progress), drain what is sick, and walk the Degraded
// transition off shards that stopped shedding.
func (set *StackSet) checkHealth(now float64) {
	for i := range set.shards {
		h := &set.health[i]
		// The engine already counted these drops by reason; mirroring the
		// delta into shard_shed_total{reason="backlog-full"} puts the whole
		// degradation ladder on one metric family.
		st := set.shards[i].Stats()
		if d := st.DroppedBacklogFull; d > h.backlogMark {
			delta := d - h.backlogMark
			h.backlogMark = d
			set.m.ShedBacklogFull.Add(delta)
			h.sheds += delta
		}
		if h.state == HealthDrained {
			continue
		}
		sick := false
		if h.lastBeat > 0 && now-h.lastBeat > DefaultStallThreshold {
			sick = true // clock frozen: crash
		}
		if set.inbox[i].len() > 0 && h.consumed == h.progressMark &&
			now-h.lastProgress > DefaultStallThreshold {
			sick = true // clock beats, consumer does not
		}
		if h.consumed != h.progressMark || set.inbox[i].len() == 0 {
			h.progressMark = h.consumed
			h.lastProgress = now
		}
		if sick {
			set.FailOver(i)
			continue
		}
		if h.sheds > h.shedMark {
			h.shedMark = h.sheds
			if h.state != HealthDegraded {
				h.state = HealthDegraded
				set.m.SetHealth(i, float64(HealthDegraded))
			}
		} else if h.state == HealthDegraded {
			h.state = HealthHealthy
			set.m.SetHealth(i, float64(HealthHealthy))
		}
	}
	degraded := 0
	for i := range set.health {
		if set.health[i].state != HealthHealthy {
			degraded++
		}
	}
	set.m.Degraded.Set(float64(degraded))
}

// FailOver drains every connection off shard sick into the survivors:
// move every PCB it holds, established or still in SYN_RCVD, to the rescue
// fold's survivor, then re-deliver every queued frame, its inbox's
// included, to its connection's new home (see resettle, which records
// each mover in away, and with them whatever the fold placed since an
// earlier drain). The watchdog calls this when a shard goes sick; an
// operator may call it directly to decommission a shard.
//
// It returns the number of connections rehomed. A set with no surviving
// shard stays Sick: there is nowhere to drain to.
//
//demux:owner(deliver)
func (set *StackSet) FailOver(sick int) int {
	h := &set.health[sick]
	if h.state == HealthDrained {
		return 0
	}
	if h.state != HealthSick {
		h.state = HealthSick
		set.m.SetHealth(sick, float64(HealthSick))
	}
	if set.liveCount() == 0 {
		return 0
	}
	set.m.Drains.Inc()
	set.m.Salvaged.Add(uint64(set.inbox[sick].len()))
	moved := set.resettle()
	h.state = HealthDrained
	set.m.SetHealth(sick, float64(HealthDrained))
	set.m.DrainedConns.Add(uint64(moved))
	set.LastDrainAt = set.now
	set.m.DrainRecovery.Set(set.now - h.lastProgress)
	return moved
}

// Accounting is the set-level conservation ledger. Every frame handed
// to Deliver ends in exactly one bucket: absorbed (a fragment of a
// still-incomplete datagram), consumed (handed to a shard's Stack, at
// once or off the shard's backlog; the Stack's own per-reason counters
// take over from there), shed (lost at a full or wedged inbox edge,
// attributed to a reason), or still queued on a faulted shard's backlog.
type Accounting struct {
	FramesIn uint64
	Absorbed uint64
	Consumed uint64
	Shed     uint64
	Queued   uint64
}

// Balanced reports whether the ledger conserves frames — the "zero
// unaccounted packet losses" acceptance check.
func (a Accounting) Balanced() bool {
	return a.FramesIn == a.Absorbed+a.Consumed+a.Shed+a.Queued
}

// Accounting captures the conservation ledger.
func (set *StackSet) Accounting() Accounting {
	a := Accounting{
		FramesIn: set.FramesIn,
		Absorbed: set.Absorbed,
		Shed:     set.m.ShedInboxFull.Value(),
	}
	for i := range set.shards {
		a.Consumed += set.health[i].consumed
		a.Queued += uint64(set.inbox[i].len())
	}
	return a
}
