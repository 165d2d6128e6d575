// Package shard is the multi-queue demultiplexing engine: RSS-style flow
// steering with the keyed tuple hash spreads inbound packets across N
// independent shards, each owning its own demuxer discipline, its own
// timer wheel and its own telemetry observer. One goroutine owns the whole
// set, so a frame goes from the steering hash to its shard's Stack by a
// direct call and nothing on the packet path is locked, atomic or queued.
// The control plane is where shards meet: listener registration fans out
// by direct call, and a connection migrating after a steering rekey or a
// drain crosses a bounded per-pair handoff queue, each handoff validated
// against the generation of the connection's one ownership claim so a
// migrated PCB can never be resolved against a stale shard.
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
	"sort"

	"tcpdemux/internal/core"
	"tcpdemux/internal/engine"
	"tcpdemux/internal/frag"
	"tcpdemux/internal/hashfn"
	"tcpdemux/internal/rng"
	"tcpdemux/internal/telemetry"
	"tcpdemux/internal/wire"
)

// Handoff is one migrating connection crossing the handoff queue between
// two shards. Gen is the generation the connection's claim was stamped with
// when the migration was authorized; the receiving shard re-validates it
// against the claims table before adopting, so a handoff message that
// was overtaken by a later move, release or re-accept is discarded
// instead of resurrecting a stale PCB.
type Handoff struct {
	PCB *core.PCB
	Gen uint64
}

// claim is the one record of who owns a connection: the owning shard and
// the generation that ownership was stamped with. Generations come from
// one set-wide counter, so no two stamps ever share one — not across
// moves of one connection, and not across successive incarnations of the
// same 4-tuple.
type claim struct {
	gen   uint64
	owner int
}

// DefaultInboxCap bounds each shard's frame backlog and DefaultHandoffCap
// each ordered shard pair's migration queue. A healthy shard queues
// nothing; the backlog absorbs what arrives for a shard whose consumer
// died or slowed between watchdog checks, the handoff queue one rekey's or
// one drain's movers toward one shard.
const (
	DefaultInboxCap   = 256
	DefaultHandoffCap = 256
)

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
// backlog: frames it cannot take yet queue in arrival order, and while
// anything is queued later frames queue behind it. Cross-shard traffic
// exists only on the control plane: Listen fans the listener out to every
// shard by direct call (accepted connections are distributed by where
// their SYN steered), and Rekey migrates connections whose assignment
// changed over per-pair handoff queues, each handoff carrying the
// generation of the claim that authorized it so a stale shard can never
// resolve a migrated PCB.
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
	// verdict keeps it from taking yet. handoff[from][to] carries
	// connections migrating from one shard to another (the diagonal is
	// never pushed).
	inbox   []fifo[[]byte]
	handoff [][]fifo[Handoff]

	// claims is the one ownership record, gen the set-wide generation
	// counter its stamps draw from, and displaced the number of claims
	// whose owner is not the shard the current steering function gives
	// their key: connections a reverted rekey or a drain left away from
	// their hash. While it is zero the steering hash alone is the answer
	// and the frame path never touches the map (homeOf).
	claims    map[core.Key]claim //demux:singlewriter(owner=deliver)
	gen       uint64             //demux:singlewriter(owner=deliver)
	displaced int                //demux:singlewriter(owner=deliver)

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

// Stats is a snapshot of the failure-domain counters: full-edge events,
// the per-reason shed ledger, and the drain bookkeeping. LastDrainRecovery
// is the most recent drain's latency in virtual seconds (completion
// minus the sick shard's last observed progress).
type Stats struct {
	StaleHandoffs     uint64
	HandoffFullEvents uint64
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
		StaleHandoffs:     m.StaleHandoffs.Value(),
		HandoffFullEvents: m.HandoffFull.Value(),
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
		claims:  make(map[core.Key]claim),
		reasm:   frag.New(64),
		Steered: make([]uint64, cfg.Shards),
		health:  make([]shardHealth, cfg.Shards),
		m:       telemetry.NewShardSetMetrics(telemetry.NewRegistry(), cfg.Shards),
	}
	set.steer = NewSteering(cfg.Shards, hashfn.KeyedFromRNG(set.src))
	set.shards = make([]*engine.Stack, cfg.Shards)
	set.inbox = make([]fifo[[]byte], cfg.Shards)
	set.handoff = make([][]fifo[Handoff], cfg.Shards)
	for i := range set.shards {
		i := i
		s := engine.NewStack(addr, cfg.NewDemuxer(i), cfg.Seed+uint64(i)*0x51_7c_c1+1)
		// OnAccept runs inside the shard's Deliver, which runs inside ours.
		s.OnAccept = func(c *engine.Conn) { set.stamp(c.Key(), i) }
		set.shards[i] = s
		set.inbox[i].bound = DefaultInboxCap
		set.handoff[i] = make([]fifo[Handoff], cfg.Shards)
		for j := range set.handoff[i] {
			set.handoff[i][j].bound = DefaultHandoffCap
		}
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

// Release drops a closed connection's claim. The engine tears PCBs down
// on its own; claims are swept lazily by Rekey, which a long-running
// server may never call — a serving frontend instead calls Release when
// a session ends so the claims table tracks the live population.
// Releasing a key with no claim is a no-op, and a late frame for the
// released tuple simply re-steers by hash (finding no PCB there). A
// handoff still in flight for the released connection can never
// validate again: a re-accept of the same tuple stamps a generation the
// set has not issued before.
//
// Like everything that touches the claims, Release runs on the goroutine
// that drives Deliver/Tick.
//
//demux:owner(deliver)
func (set *StackSet) Release(key core.Key) {
	set.uncount(key)
	delete(set.claims, key)
}

// stamp records shard owner as key's owner under a fresh generation and
// returns that generation. Every ownership transition — accept, move,
// revert — goes through here, so whatever held the previous generation
// is stale from this point on.
//
//demux:owner(deliver)
func (set *StackSet) stamp(key core.Key, owner int) uint64 {
	set.uncount(key)
	set.gen++
	set.claims[key] = claim{gen: set.gen, owner: owner}
	if owner != set.steer.Shard(key.Tuple()) {
		set.displaced++
	}
	return set.gen
}

// uncount takes key's present claim, if it has one, out of the displaced
// count, ahead of the claim's replacement or deletion. With nothing
// displaced there is nothing to take out, and no hash is computed.
//
//demux:owner(deliver)
func (set *StackSet) uncount(key core.Key) {
	if set.displaced == 0 {
		return
	}
	if cl, ok := set.claims[key]; ok && cl.owner != set.steer.Shard(key.Tuple()) {
		set.displaced--
	}
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
// carries the frame's connection key so the delivery path can consult the
// claims table without re-parsing.
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
// the fast default, but two control-plane events leave it pointing away
// from a connection's actual owner: a rekey whose handoff queue was full
// reverted the move, and a drain rehomed a dead shard's connections.
// The claims table records the authoritative owner in both cases.
// A frame whose steered shard is dead and that has no claim — a fresh
// SYN, or a handshake that was drained before it completed — re-steers
// by the rescue fold, the same choice the drain made, so both sides of
// the failover agree without extra rendezvous state.
//
// idx is the steering hash's answer for key. With no claim displaced, every
// claim names the shard its key hashes to, so a live idx is also what the
// claims table and the rescue fold would say, and neither is consulted:
// the ordinary frame pays for no map lookup. A reverted rekey, a drain or a
// dead shard brings the table back into the path.
//
//demux:owner(deliver)
//demux:hotpath
func (set *StackSet) homeOf(idx int, key core.Key) int {
	if set.displaced == 0 && set.alive(idx) {
		return idx
	}
	if cl, ok := set.claims[key]; ok {
		return cl.owner
	}
	if !set.alive(idx) {
		if to, ok := set.rescueShard(key.Tuple()); ok {
			return to
		}
	}
	return idx
}

// pushInbox enqueues a frame on shard idx's backlog through the
// backpressure machinery: when the backlog is full (or wedged by a fault),
// the push is retried a bounded number of times with a growing forced
// consumption between attempts — queued frames drain *before* the new
// one enqueues, so delivery order is preserved. A consumer that cannot
// make progress (crashed, stalled, wedged) exhausts the budget and the
// frame is shed, counted against inbox-full.
func (set *StackSet) pushInbox(idx int, frame []byte, v FaultVerdict) bool {
	if !v.Wedge && set.inbox[idx].push(frame) {
		return true
	}
	set.InboxFullEvents++
	set.m.InboxFull.Inc()
	if !v.Wedge && !v.Crash && !v.Stall {
		force := 1
		for attempt := 0; attempt < DefaultHandoffRetries; attempt++ {
			set.consume(idx, force)
			if set.inbox[idx].push(frame) {
				return true
			}
			force *= 2
		}
	}
	set.shedInboxFrame(idx)
	return false
}

// consume pops shard idx's backlog into its Stack, at most max frames
// (max <= 0 means drain fully), returning the last delivery's result.
func (set *StackSet) consume(idx int, max int) (core.Result, error) {
	var last core.Result
	var lastErr error
	for n := 0; max <= 0 || n < max; n++ {
		f, ok := set.inbox[idx].pop()
		if !ok {
			break
		}
		set.health[idx].consumed++
		last, lastErr = set.shards[idx].Deliver(f)
	}
	return last, lastErr
}

// home resolves the shard a frame belongs to — the steering hash,
// corrected by the claims table and the rescue fold (homeOf) — and the
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

// dispatch hands a homed frame to its shard's Stack: by a direct call when
// the shard is under no fault verdict and has nothing queued, which is
// every frame of a healthy set. Otherwise the frame joins the shard's
// backlog under backpressure, behind what an earlier fault left there, and
// the backlog drains into the Stack as the active verdict allows, so a
// frame never overtakes one that arrived before it. It is the one body
// behind Deliver and the drain's salvage path (FailOver re-homes and
// dispatches a dead shard's queued frames, which Deliver already counted
// when they first arrived).
//
//demux:hotpath
func (set *StackSet) dispatch(idx int, whole []byte) (core.Result, error) {
	if idx < 0 {
		set.Absorbed++
		return core.Result{}, nil // fragment absorbed, datagram incomplete
	}
	if !set.alive(idx) {
		// A dead shard with no rescue: late frames for connections that
		// closed before the drain (their stale claim still names the
		// corpse), or a set with no survivors. Shed, attributed.
		set.shedInboxFrame(idx)
		return core.Result{}, nil
	}
	v := set.verdict(idx)
	if v == (FaultVerdict{}) && set.inbox[idx].len() == 0 {
		set.health[idx].consumed++
		return set.shards[idx].Deliver(whole)
	}
	if !set.pushInbox(idx, whole, v) {
		return core.Result{}, nil
	}
	if v.Crash || v.Stall {
		return core.Result{}, nil // queued; the consumer is not running
	}
	return set.consume(idx, v.MaxConsume)
}

// Deliver implements engine.LossyServer: count the frame, resolve its
// true home (steering hash, claims table, then the rescue fold when the
// steered shard is dead) and dispatch it there. The returned Result is
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
// advance, any backlog a recovered or slow consumer left behind is
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
			set.consume(i, v.MaxConsume)
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
// shard assignment changed, over the handoff queues (see migrate). It
// returns the number of connections migrated.
//
// Rekey is a control-plane quiesce point: the caller must not run it
// concurrently with Deliver (between Shuttle rounds in the lossy
// harness, between measurement windows in the benches). This is the same
// contract as the overload package's online rekey — steering changes are
// epoch transitions, not per-packet events.
//
//demux:owner(deliver)
func (set *StackSet) Rekey() int {
	n := len(set.shards)
	set.Rekeys++
	newSteer := NewSteering(n, hashfn.KeyedFromRNG(set.src))

	// Sweep the claim table against the live connections first: claims
	// whose connection has since closed are dropped.
	live := make(map[core.Key]bool)
	for _, s := range set.shards {
		for _, ci := range s.Netstat() {
			if !ci.Key.IsWildcard() {
				live[ci.Key] = true
			}
		}
	}
	type move struct {
		k        core.Key
		from, to int
	}
	var moves []move
	for k, cl := range set.claims { //demux:orderinvariant deletions and the collected move set are per-key independent; movers are sorted below
		if !live[k] {
			set.uncount(k)
			delete(set.claims, k)
			continue
		}
		if to := newSteer.Shard(k.Tuple()); to != cl.owner && set.alive(to) {
			moves = append(moves, move{k, cl.owner, to})
		}
	}
	// Deterministic migration order: queue-full fallbacks depend on the
	// order movers hit the handoff queues, so the launch sequence must not
	// inherit map iteration order.
	sort.Slice(moves, func(i, j int) bool { return moves[i].k.Compare(moves[j].k) < 0 })

	// The steering swap happens after the extracts so the new function
	// never steers a frame at a shard that still owns nothing — the
	// caller's quiesce contract means no frames arrive mid-rekey anyway,
	// and the swap order keeps the invariant even if one does.
	migrated := 0
	for _, mv := range moves {
		pcb, ok := set.shards[mv.from].Extract(mv.k)
		if !ok {
			continue // raced with a timer teardown between sweep and now
		}
		pushed, adopted := set.migrate(pcb, mv.from, mv.to)
		migrated += adopted
		if !pushed {
			// Revert: the connection keeps working on its home shard
			// despite the steering function now pointing elsewhere.
			_ = set.shards[mv.from].Adopt(pcb)
			set.stamp(mv.k, mv.from)
		}
	}
	set.steer = newSteer
	// Displaced is relative to the steering function, so the swap recounts
	// it: what stays displaced is what the moves above could not fix (a
	// move reverted on a full queue, a target that is not alive).
	set.displaced = 0
	for k, cl := range set.claims { //demux:orderinvariant a count
		if cl.owner != newSteer.Shard(k.Tuple()) {
			set.displaced++
		}
	}

	// Each live shard drains its incoming handoff queues and adopts what
	// the claims table still says is its own.
	for to := range set.shards {
		if set.alive(to) {
			migrated += set.adoptPending(to)
		}
	}
	set.Migrations += uint64(migrated)
	return migrated
}

// migrate is the one cross-shard migration step, shared by Rekey and
// FailOver. pcb has already been Extracted from shard from. The claim is
// stamped with a fresh generation naming shard to — authorizing exactly
// this transfer — and the Handoff is offered to the from->to queue a
// bounded number of times, the destination adopting what it already has
// queued between offers (backoff by making room — virtual time only
// advances in Tick). It reports whether the queue took the handoff, and
// how many earlier handoffs the destination adopted while making room.
//
// A queue that stays refused (wedged by a fault, like the destination's
// inbox, or the target cannot absorb) sheds the handoff, attributed to
// handoff-full, and leaves the PCB in the caller's hands with the claim
// still naming to: Rekey reverts the move, FailOver adopts directly.
func (set *StackSet) migrate(pcb *core.PCB, from, to int) (pushed bool, adopted int) {
	h := Handoff{PCB: pcb, Gen: set.stamp(pcb.Key, to)}
	for attempt := 0; attempt < DefaultHandoffRetries; attempt++ {
		if !set.verdict(to).Wedge && set.handoff[from][to].push(h) {
			return true, adopted
		}
		set.m.HandoffFull.Inc()
		adopted += set.adoptPending(to)
	}
	set.m.ShedHandoffFull.Inc()
	return false, adopted
}

// adoptPending drains every handoff queue aimed at shard `to`, adopting
// each PCB whose claim still names this shard at exactly the handed-off
// generation. A handoff that fails the check is stale — a later move,
// release or re-accept overtook the message in flight — and is dropped
// without touching the PCB: whoever stamped the newer generation owns
// the connection now.
//
//demux:owner(deliver)
func (set *StackSet) adoptPending(to int) int {
	adopted := 0
	for from := range set.shards {
		for {
			h, ok := set.handoff[from][to].pop()
			if !ok {
				break
			}
			cl, claimed := set.claims[h.PCB.Key]
			if !claimed || cl.gen != h.Gen || cl.owner != to {
				set.m.StaleHandoffs.Inc()
				continue
			}
			if err := set.shards[to].Adopt(h.PCB); err != nil {
				// A duplicate key on the target shard means the connection
				// was re-established there while this handoff was in
				// flight; the stale copy loses.
				set.m.StaleHandoffs.Inc()
				continue
			}
			adopted++
		}
	}
	return adopted
}
