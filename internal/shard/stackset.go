// Package shard is the multi-queue demultiplexing engine: RSS-style flow
// steering with the keyed tuple hash spreads inbound packets across N
// independent shards, each owning its own demuxer discipline, its own
// timer wheel and its own telemetry observer. One goroutine owns the whole
// set, so a frame goes from the steering hash to its shard's Stack by a
// direct call and nothing on the packet path is locked, atomic or queued.
// The control plane is where shards meet, and it is direct calls too:
// listener registration fans out to every shard, and a connection migrating
// after a steering rekey or a drain is taken out of one shard's table and
// put in another's. A connection is owned by the shard whose table holds
// its PCB; the set records only the connections that live somewhere other
// than where the steering hash points.
//
// The paper demultiplexes on a uniprocessor, and what its hashed table
// gives a sharded engine is the partition: each shard's table holds 1/N of
// the connection population, so its chain walks (and its cache working
// set) shrink proportionally, which is the paper's C(N) argument applied
// per shard. That effect needs steering and private tables; it does not
// need a second goroutine, and this package has none.
package shard

import (
	"errors"
	"fmt"

	"tcpdemux/internal/core"
	"tcpdemux/internal/engine"
	"tcpdemux/internal/frag"
	"tcpdemux/internal/hashfn"
	"tcpdemux/internal/rng"
	"tcpdemux/internal/telemetry"
	"tcpdemux/internal/wire"
)

// DefaultInboxCap bounds each shard's frame backlog. A healthy shard queues
// nothing; the backlog absorbs what arrives for a shard whose consumer
// crashed or stalled between watchdog checks.
const DefaultInboxCap = 256

// Config parameterizes a StackSet.
type Config struct {
	// Shards is the number of queues (>= 1).
	Shards int
	// NewDemuxer builds shard i's private demultiplexer discipline. Any
	// core.Register'd algorithm works; each shard gets its own instance
	// so no lookup state is shared. Required.
	NewDemuxer func(shard int) core.Demuxer
	// Seed drives the steering key and each shard's ISS generator.
	Seed uint64
}

// StackSet is the sharded multi-queue endpoint: one address, N
// engine.Stacks behind an RSS-style steering function. It has a single
// owner: one goroutine (server.loop in the serving frontend) drives
// Deliver, Tick, Release, Rekey and FailOver, and with them every shard's
// Stack; nothing on that path is locked. Every inbound frame hashes its
// tuple with the keyed steering hash and is handed, by a direct call, to
// exactly one shard's private Stack — private demuxer, private timer
// wheel, private outbox — so the packet path shares no mutable state
// between shards. Only a shard under a fault verdict (health.go) keeps a
// backlog: frames it cannot take yet queue in arrival order, and the next
// frame it takes once the verdict clears is delivered after all of them.
// Cross-shard traffic exists only on the control plane: Listen fans the
// listener out to every shard by direct call (accepted connections are
// distributed by where their SYN steered), and Rekey and FailOver move a
// connection by taking its PCB out of one shard's table and putting it in
// another's (resettle).
// The shard whose table holds a PCB owns the connection; away names the few
// that the steering hash alone would not find.
//
// StackSet implements engine.LossyServer, so the lossy-link conformance
// harness can drive it through the identical loss process as a single
// Stack and compare application-level delivery byte for byte. Everything
// is processed synchronously, inside the call that brought it, which is
// what keeps the engine deterministic under the virtual-time harnesses.
type StackSet struct {
	addr   wire.Addr
	shards []*engine.Stack
	// steer is the current steering function; Rekey replaces it.
	steer Steering
	src   *rng.Source

	// inbox[i] is shard i's backlog: frames steered at it that a fault
	// verdict keeps it from taking yet.
	inbox []fifo

	// away names the shard holding each connection that lives somewhere
	// other than where the current steering function sends its key: a
	// rekey's mover that a wedged destination refused, a drain's movers, a
	// connection whose steered shard is dead. resettle is its only writer
	// besides Release. A set that never rekeyed or failed over keeps it
	// empty, and then the steering hash alone is the answer and the frame
	// path never touches the map (homeOf).
	away map[core.Key]int //demux:singlewriter(owner=deliver)

	// reasm reassembles fragmented datagrams before steering, the
	// software re-steer real kernels apply after reassembly: a fragment
	// has no ports to hash, so the set reassembles first and steers the
	// whole datagram by its full tuple. Its expiry clock is FramesIn.
	reasm *frag.Reassembler //demux:singlewriter(owner=deliver)

	// fault is the injection surface and health the watchdog's per-shard
	// ledger (health.go); now is the set's virtual clock, advanced by
	// Tick so Deliver can evaluate fault windows. m is the telemetry
	// bundle, homed on a private registry until SetTelemetry re-homes it.
	fault  FaultFunc
	health []shardHealth
	now    float64
	m      *telemetry.ShardSetMetrics

	// Steered counts frames dispatched per shard; Rekeys and Migrations
	// describe the rekey machinery. Steered is written only on the
	// Deliver path (the deliver role); external readers consume it after
	// the run, outside this package and hence outside the analyzer's
	// reach. Every counter with a telemetry twin lives only in m and is
	// read through Stats.
	Steered    []uint64 //demux:singlewriter(owner=deliver)
	Rekeys     uint64
	Migrations uint64

	// FramesIn and Absorbed are the per-frame half of the conservation
	// ledger (see Accounting in health.go). InboxFullEvents duplicates
	// m.InboxFull only because bench/ reads the field and this tree's
	// PRs may not touch bench/; it goes when that restriction does.
	// LastDrainAt is the virtual time of the most recent drain.
	FramesIn        uint64
	Absorbed        uint64
	InboxFullEvents uint64
	LastDrainAt     float64
}

// Stats is a snapshot of the failure-domain counters: the per-reason shed
// ledger and the drain bookkeeping. LastDrainRecovery is the most recent
// drain's latency in virtual seconds (completion minus the sick shard's
// last observed progress).
type Stats struct {
	ShedInboxFull     uint64
	ShedHandoffFull   uint64
	ShedBacklogFull   uint64
	Drains            uint64
	DrainedConns      uint64
	SalvagedFrames    uint64
	LastDrainRecovery float64
}

// Stats reads the set's telemetry bundle (see SetTelemetry), the only
// place these counters are kept.
func (set *StackSet) Stats() Stats {
	m := set.m
	return Stats{
		ShedInboxFull:     m.ShedInboxFull.Value(),
		ShedHandoffFull:   m.ShedHandoffFull.Value(),
		ShedBacklogFull:   m.ShedBacklogFull.Value(),
		Drains:            m.Drains.Value(),
		DrainedConns:      m.DrainedConns.Value(),
		SalvagedFrames:    m.Salvaged.Value(),
		LastDrainRecovery: m.DrainRecovery.Value(),
	}
}

// NewStackSet builds a sharded endpoint at addr.
func NewStackSet(addr wire.Addr, cfg Config) (*StackSet, error) {
	if cfg.Shards < 1 {
		return nil, errors.New("shard: need at least one shard")
	}
	if cfg.NewDemuxer == nil {
		return nil, errors.New("shard: Config.NewDemuxer is required")
	}
	set := &StackSet{
		addr:    addr,
		src:     rng.New(cfg.Seed ^ 0x9e3779b97f4a7c15),
		reasm:   frag.New(64),
		Steered: make([]uint64, cfg.Shards),
		health:  make([]shardHealth, cfg.Shards),
		m:       telemetry.NewShardSetMetrics(telemetry.NewRegistry(), cfg.Shards),
	}
	set.steer = NewSteering(cfg.Shards, hashfn.KeyedFromRNG(set.src))
	set.shards = make([]*engine.Stack, cfg.Shards)
	set.inbox = make([]fifo, cfg.Shards)
	for i := range set.shards {
		set.shards[i] = engine.NewStack(addr, cfg.NewDemuxer(i), cfg.Seed+uint64(i)*0x51_7c_c1+1)
		set.inbox[i].bound = DefaultInboxCap
	}
	return set, nil
}

// SetTelemetry re-homes the set's failure-domain metric bundle — and
// every shard Stack's engine bundle — on reg, so one snapshot carries
// the shed ledger, the health gauges, and the per-reason engine drops
// together. Call it before delivering traffic: counts already
// accumulated on the previous registry are not carried over, and Stats
// and Accounting read these counters.
func (set *StackSet) SetTelemetry(reg *telemetry.Registry) {
	set.m = telemetry.NewShardSetMetrics(reg, len(set.shards))
	for _, s := range set.shards {
		s.SetTelemetry(reg)
	}
}

// SetEgressTap fans an egress tap out to every shard Stack: outbound
// frames are handed to fn the instant they are produced instead of
// queuing on the per-shard outboxes for Drain — the serving frontend's
// path, which would otherwise rescan every shard's outbox per delivery.
// fn runs inside Deliver and Tick, part-way through a frame, so it must
// not call back into the set (append to a caller-owned queue and process
// after Deliver/Tick returns). Passing nil restores Drain queuing.
func (set *StackSet) SetEgressTap(fn func(frame []byte)) {
	for _, s := range set.shards {
		s.SetEgressTap(fn)
	}
}

// Release forgets where a closed connection lived. The engine tears PCBs
// down on its own; a serving frontend calls Release when a session ends so
// that away tracks live connections between rekeys (Rekey and FailOver
// sweep it too). Releasing a connection that lived where its key steers,
// which is every connection of a set that never rekeyed or failed over,
// finds nothing to delete, and a late frame for the released tuple simply
// steers by hash (finding no PCB there).
//
//demux:owner(deliver)
func (set *StackSet) Release(key core.Key) {
	delete(set.away, key)
}

// Shards returns the shard count.
func (set *StackSet) Shards() int { return len(set.shards) }

// Shard exposes shard i's Stack for inspection (stats, netstat).
func (set *StackSet) Shard(i int) *engine.Stack { return set.shards[i] }

// Steering returns the current steering function.
func (set *StackSet) Steering() Steering { return set.steer }

// Addr implements engine.LossyServer.
func (set *StackSet) Addr() wire.Addr { return set.addr }

// Listen implements engine.LossyServer by fanning the listener out to
// every shard: each shard owns a private listener PCB, so a SYN is
// accepted wherever its tuple steers and the connection lives its whole
// life on that shard (until a rekey migrates it).
func (set *StackSet) Listen(port uint16, h engine.Handler) error {
	for i, s := range set.shards {
		if err := s.Listen(port, h); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// SetTimers implements engine.LossyServer, fanning to every shard.
func (set *StackSet) SetTimers(rto float64, maxRetries int, msl float64) {
	for _, s := range set.shards {
		s.SetTimers(rto, maxRetries, msl)
	}
}

// SetBacklog implements engine.LossyServer. Each shard receives the full
// backlog: steering decides which shard a SYN reaches, so a per-shard
// split would refuse bursts that happen to steer together.
func (set *StackSet) SetBacklog(n int) {
	for _, s := range set.shards {
		s.SetBacklog(n)
	}
}

// LifecycleCounters implements engine.LossyServer by summing the shards,
// reading each distinct counter once: after SetTelemetry every shard's
// bundle resolves to the same registry counters, which already hold the
// set-wide totals.
func (set *StackSet) LifecycleCounters() (retransmits, aborts, synExpired, timeWaitExpired uint64) {
shards:
	for i, s := range set.shards {
		c := s.Telemetry().Retransmits
		for _, earlier := range set.shards[:i] {
			if earlier.Telemetry().Retransmits == c {
				continue shards
			}
		}
		r, a, se, tw := s.LifecycleCounters()
		retransmits += r
		aborts += a
		synExpired += se
		timeWaitExpired += tw
	}
	return
}

// steerFrame picks the owning shard for a raw frame: the keyed hash of
// its full tuple. Fragments carry no ports, so the set reassembles them
// first and steers the rebuilt datagram; an undecodable frame goes to
// shard 0, whose Stack will account the parse error. A keyed result also
// carries the frame's connection key so the delivery path can consult
// away without re-parsing.
//
//demux:owner(deliver)
//demux:hotpath
func (set *StackSet) steerFrame(frame []byte) (int, core.Key, bool, []byte) {
	tup, err := wire.ExtractTuple(frame)
	if err == nil {
		return set.steer.Shard(tup), core.KeyFromTuple(tup), true, frame
	}
	if errors.Is(err, wire.ErrFragmented) {
		whole, ferr := set.reasm.Add(frame, float64(set.FramesIn))
		if ferr != nil || whole == nil {
			// Malformed fragment or datagram still incomplete: shard 0
			// reports the former; the latter is simply absorbed.
			if ferr != nil {
				return 0, core.Key{}, false, frame
			}
			return -1, core.Key{}, false, nil
		}
		if tup, err = wire.ExtractTuple(whole); err == nil {
			return set.steer.Shard(tup), core.KeyFromTuple(tup), true, whole
		}
		return 0, core.Key{}, false, whole
	}
	return 0, core.Key{}, false, frame
}

// homeOf resolves a keyed frame's true home shard. The steering hash is
// the fast default, and idx is its answer for key. Two control-plane events
// leave it pointing away from the shard that holds a connection's PCB: a
// rekey whose destination was wedged left the mover where it was, and a
// drain rehomed a dead shard's connections. away names the holder in both
// cases. A frame whose steered shard is dead and that away does not name
// (a fresh SYN, or a connection that SYN began) re-steers by the rescue
// fold; resettle records such a connection before the fold next changes.
//
// With away empty and idx alive the hash is the whole answer and no map is
// consulted, which is every frame of a set that never rekeyed or failed
// over.
//
//demux:owner(deliver)
//demux:hotpath
func (set *StackSet) homeOf(idx int, key core.Key) int {
	if len(set.away) == 0 && set.alive(idx) {
		return idx
	}
	if at, ok := set.away[key]; ok {
		return at
	}
	if !set.alive(idx) {
		if to, ok := set.rescueShard(key.Tuple()); ok {
			return to
		}
	}
	return idx
}

// consume drains shard idx's backlog into its Stack, oldest frame first.
// A queued frame's delivery error stays with that frame: the Stack has
// already counted it by reason.
func (set *StackSet) consume(idx int) {
	for {
		f, ok := set.inbox[idx].pop()
		if !ok {
			return
		}
		set.health[idx].consumed++
		_, _ = set.shards[idx].Deliver(f)
	}
}

// home resolves the shard a frame belongs to — the steering hash,
// corrected by away and the rescue fold (homeOf) — and the
// whole frame to hand it (a reassembled datagram differs from its last
// fragment). A negative shard means a fragment was absorbed and there is
// nothing to dispatch yet.
//
//demux:hotpath
func (set *StackSet) home(frame []byte) (int, []byte) {
	idx, key, keyed, whole := set.steerFrame(frame)
	if idx >= 0 && keyed {
		idx = set.homeOf(idx, key)
	}
	return idx, whole
}

// dispatch hands a homed frame to its shard's Stack. A shard under the zero
// verdict takes it by a direct call, which is every frame of a healthy set,
// after draining whatever an earlier fault left on its backlog, so a frame
// never overtakes one that arrived before it. A crashed or stalled shard
// queues the frame while its backlog has room, and a wedged one refuses it;
// a frame neither taken nor queued is shed, counted against inbox-full. It
// is the one body behind Deliver and the drain's salvage path (FailOver
// re-homes and dispatches a dead shard's queued frames, which Deliver
// already counted when they first arrived).
//
//demux:hotpath
func (set *StackSet) dispatch(idx int, whole []byte) (core.Result, error) {
	if idx < 0 {
		set.Absorbed++
		return core.Result{}, nil // fragment absorbed, datagram incomplete
	}
	if !set.alive(idx) {
		// A dead shard with no rescue: the set has no survivors. Shed,
		// attributed.
		set.shedInboxFrame(idx)
		return core.Result{}, nil
	}
	if v := set.verdict(idx); v != (FaultVerdict{}) {
		if v.Wedge || !set.inbox[idx].push(whole) {
			set.InboxFullEvents++
			set.m.InboxFull.Inc()
			set.shedInboxFrame(idx)
		}
		return core.Result{}, nil
	}
	if set.inbox[idx].len() > 0 {
		set.consume(idx)
	}
	set.health[idx].consumed++
	return set.shards[idx].Deliver(whole)
}

// Deliver implements engine.LossyServer: count the frame, resolve its
// true home (steering hash, away, then the rescue fold when the steered
// shard is dead) and dispatch it there. The returned Result is
// the shard demuxer's lookup result for this frame (zero for an absorbed
// fragment or a frame left queued on a faulted shard), so callers can
// account examination costs exactly as with a single Stack.
//
//demux:owner(deliver)
//demux:hotpath
func (set *StackSet) Deliver(frame []byte) (core.Result, error) {
	set.FramesIn++
	// The reassembly timer ticks here, on every frame, not in steerFrame's
	// fragment branch: orphans must expire under ordinary traffic.
	if frag.ExpiryDue(set.FramesIn) {
		set.reasm.Reap(float64(set.FramesIn), frag.ExpiryTTL)
	}
	idx, whole := set.home(frame)
	if idx >= 0 {
		set.Steered[idx]++
	}
	return set.dispatch(idx, whole)
}

// Drain implements engine.LossyServer, concatenating every shard's
// outbox in shard order — the deterministic merge a single egress NIC
// queue would apply.
func (set *StackSet) Drain() [][]byte {
	var out [][]byte
	for _, s := range set.shards {
		out = append(out, s.Drain()...)
	}
	return out
}

// Tick implements engine.LossyServer: every live shard's virtual clock
// advances together, each with its liveness heartbeat armed on its own
// wheel; a crashed shard's clock freezes (that is what the heartbeat
// detects) and a drained shard is decommissioned. After the clocks
// advance, any backlog a consumer that is running again left behind is
// drained, and the watchdog pass runs.
func (set *StackSet) Tick(now float64) {
	set.now = now
	for i, s := range set.shards {
		h := &set.health[i]
		if h.state == HealthDrained {
			continue
		}
		v := set.verdict(i)
		if v.Crash {
			// Frozen clock: no Tick, so no heartbeat. Baseline the beat at
			// first sighting so staleness is measured from here, not from
			// the epoch.
			if h.lastBeat == 0 {
				h.lastBeat = now
			}
			continue
		}
		set.ensureHeartbeat(i, now)
		s.Tick(now)
		if !v.Stall {
			set.consume(i)
		}
	}
	set.checkHealth(now)
}

// TimeWaitCount sums the shards' TIME_WAIT populations.
func (set *StackSet) TimeWaitCount() int {
	n := 0
	for _, s := range set.shards {
		n += s.TimeWaitCount()
	}
	return n
}

// Len sums the shards' demuxer populations (listeners included).
func (set *StackSet) Len() int {
	n := 0
	for _, s := range set.shards {
		n += s.Demuxer().Len()
	}
	return n
}

// Rekey draws a fresh steering key and migrates every connection whose
// shard assignment changed (see resettle). It returns the number of
// connections migrated. Steering changes are epoch transitions, not
// per-packet events: the same contract as AutoSequent's one-pass rekey.
//
//demux:owner(deliver)
func (set *StackSet) Rekey() int {
	set.Rekeys++
	set.steer = NewSteering(len(set.shards), hashfn.KeyedFromRNG(set.src))
	migrated := set.resettle()
	set.Migrations += uint64(migrated)
	return migrated
}

// resettle is the one walk behind Rekey and FailOver. It collects each
// shard's PCBs once, in PCBs' order (which fixes the order moves are
// made in), and decides where each connection belongs: on the shard its
// key steers to if that shard is alive, else where it already is if that
// one is, else on the rescue fold's survivor. A PCB that belongs elsewhere
// is handed to Extract and moved, so nothing searches a table per move,
// and one that ends up off its steered shard is written to a fresh away,
// so the same walk is the sweep of entries whose connection has closed.
// Every backlog is taken up before the walk and re-homed after it, so a
// queued frame reaches its connection where the walk left it, or opens one
// where the new steering points. It returns the number of connections
// moved.
//
//demux:owner(deliver)
func (set *StackSet) resettle() int {
	var queued [][]byte
	for i := range set.inbox {
		for f, ok := set.inbox[i].pop(); ok; f, ok = set.inbox[i].pop() {
			queued = append(queued, f)
		}
	}
	away := make(map[core.Key]int)
	moved := 0
	for at, s := range set.shards {
		for _, pcb := range s.PCBs() {
			k := pcb.Key
			if k.IsWildcard() {
				continue // the listener stays: every shard has its own
			}
			home := set.steer.Shard(k.Tuple())
			to := home
			if !set.alive(home) {
				to = at
				if !set.alive(at) {
					if rescue, ok := set.rescueShard(k.Tuple()); ok {
						to = rescue
					}
				}
			}
			holder := at
			if to != at && set.move(pcb, at, to) {
				holder = to
				moved++
			}
			if holder != home {
				away[k] = holder
			}
		}
	}
	set.away = away
	for _, f := range queued {
		set.dispatch(set.home(f))
	}
	return moved
}

// move is the whole migration step: take pcb out of shard from's table and
// put it in shard to's, reporting whether it landed. A wedged destination
// counts one handoff-full shed, and the migration is forgone
// (the PCB goes back where it was and the connection keeps working there)
// unless the source is dead: a drain sheds the courtesy, never the
// connection. A destination already holding a PCB under this key sends the
// mover back to its source too.
func (set *StackSet) move(pcb *core.PCB, from, to int) bool {
	if !set.shards[from].Extract(pcb) {
		return false // closed since the walk's snapshot: nothing to carry
	}
	wedged := set.verdict(to).Wedge
	if wedged {
		set.m.ShedHandoffFull.Inc()
	}
	if (wedged && set.alive(from)) || set.shards[to].Adopt(pcb) != nil {
		_ = set.shards[from].Adopt(pcb) // cannot fail: the key has just left this table
		return false
	}
	return true
}
