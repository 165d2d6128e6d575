package shard

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/discipline"
	"tcpdemux/internal/engine"
	"tcpdemux/internal/frag"
	"tcpdemux/internal/telemetry"
	"tcpdemux/internal/wire"
)

// The oracle's operating point. A client leaves TIME_WAIT within a run, and
// answers a retransmitted FIN with an RST that closes the server's LAST_ACK.
// A gracefully closed slot is never re-opened.
const (
	oraclePort, oracleSlots, oracleSteps = uint16(1521), 16, 64
	oracleStride, oracleRTO, oracleMSL   = 5e-3, 0.25, 0.5 // virtual seconds
	oracleRetries                        = 20
)

var oracleServer, oracleClient = wire.MakeAddr(10, 0, 0, 1), wire.MakeAddr(10, 0, 0, 2)

// A schedule step is three input bytes: an op and two arguments. The ops up
// to opReset are intents, which a world queues on the slot and carries out
// once that connection can take it; the rest act on every world at once.
const (
	opOpen     = iota // a: slot. Opens it, or Releases a reset slot's 4-tuple and re-accepts it
	opRequest         // a: slot, b: 1 + b%4 stop-and-wait requests
	opBurst           // a: slot, b: 1 + b in-order segments handed straight to the server
	opFragment        // a: slot, b: overlapping, duplicated or never-completed fragments of one request
	opClose           // a: slot
	opReset           // a: slot. An RST at the next sequence number, then the client's close
	opTick            // a: advance (1 + a%16) × 50 ms
	opSettle          // advance until every world is idle, at most 2 s
	opFault           // a: Crash, Stall or Wedge; b: a shard, or 128|slot for the slot's shard
	opClear           // end the fault window
	opRekey
	opFailOver // b: as for opFault
	numOps
)

type step struct {
	op, a, b byte
	id       uint16   // a fragmented request's IP ID
	data     [][]byte // what a request, fragment or burst sends
}

// schedule is a decoded input: the link, the steps, and the bytes each
// slot's client and server must have received once a world has run it.
type schedule struct {
	link, seed byte
	steps      []step
	cli, srv   [oracleSlots][]byte
}

// decodeSchedule turns fuzz bytes into a schedule, dropping intents that do
// not fit their slot's state, and ends it by clearing the fault window and
// closing every open slot.
func decodeSchedule(data []byte) *schedule {
	s := &schedule{}
	if len(data) >= 2 {
		s.link, s.seed, data = data[0], data[1], data[2:]
	}
	var live, closed [oracleSlots]bool
	var sent [oracleSlots]int
	for ; len(data) >= 3 && len(s.steps) < oracleSteps; data = data[3:] {
		st := step{op: data[0] % numOps, a: data[1], b: data[2], id: uint16(len(s.steps) + 1)}
		slot, n := int(st.a)%oracleSlots, 0
		if st.op <= opReset && (live[slot] == (st.op == opOpen) || closed[slot]) {
			continue
		}
		switch st.op {
		case opOpen, opReset, opClose:
			live[slot], closed[slot] = st.op == opOpen, st.op == opClose
		case opRequest:
			n = 1 + int(st.b%4)
		case opFragment:
			n = 1
		case opBurst:
			n = -1 - int(st.b) // a burst's segments get no answer
		}
		for i := 0; i < max(n, -n); i++ {
			p := fmt.Appendf(nil, "b%02d-%04d", slot, sent[slot])
			if n > 0 {
				p = fmt.Appendf(nil, "txn q%02d t%04d debit 100", slot, sent[slot])
				s.cli[slot] = append(append(append(s.cli[slot], "ok<"...), p...), '>')
			}
			sent[slot]++
			st.data, s.srv[slot] = append(st.data, p), append(s.srv[slot], p...)
		}
		s.steps = append(s.steps, st)
	}
	s.steps = append(s.steps, step{op: opClear})
	for slot, open := range live {
		if open {
			s.steps = append(s.steps, step{op: opClose, a: byte(slot)})
		}
	}
	return s
}

// linkConfig is the schedule's link, with a chaos scenario's scripted
// corruption, drops and delays; each world gets its own.
func (s *schedule) linkConfig() engine.LinkConfig {
	cfg := engine.LinkConfig{Seed: uint64(s.seed) + 1, DropRate: [4]float64{0, 0.05, 0.1, 0.2}[s.link&3],
		DupRate: 0.05 * float64(s.link>>2&3), Latency: 0.01, Jitter: 0.004 * float64(s.link>>4&1)}
	if n := 0; s.link&32 != 0 {
		cfg.Chaos = func([]byte, engine.ChaosDir, float64) engine.ChaosVerdict {
			n++
			return engine.ChaosVerdict{Corrupt: n%23 == 0, Drop: n%17 == 0, ExtraDelay: 0.05 * float64(b2i(n%13 == 0))}
		}
	}
	return cfg
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func slotKey(slot int) core.Key {
	return core.Key{LocalAddr: oracleServer, LocalPort: oraclePort, RemoteAddr: oracleClient, RemotePort: 40000 + uint16(slot)}
}

// FuzzStackSet is the differential oracle for the sharded engine: a
// schedule runs in lockstep against one Stack over MapDemux and a StackSet
// per discipline.Names() entry at 1 and 4 shards (at 4 also with the fault
// windows), each with its own client and link. Every world must deliver
// every byte sent, in order, at both ends; every set is held to its ledger,
// ownership and away records, the watchdog's verdicts, and on a lossless
// link without faults the reference's drop and lifecycle counters.
func FuzzStackSet(f *testing.F) {
	for _, seed := range oracleSeeds {
		f.Add(seed.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var floor tally
		for _, seed := range oracleSeeds {
			if bytes.Equal(seed.data, data) {
				floor = seed.floor
			}
		}
		runOracle(t, decodeSchedule(data), floor)
	})
}

// tally is what a four-shard world with the fault windows made happen: the
// shards steered a frame, link drops, the set's drain, shed and migration
// counters, and the most away entries and queued frames seen at a check. A
// seed that stands for a deleted test sets a floor on it, so that a
// scenario that stops happening fails instead of passing vacuously.
type tally struct {
	Shards, Dropped, Drains, DrainedConns, Salvaged, Shed, HandoffShed, Migrations, Away, Queued uint64
}

func (w *world) tally() tally {
	t, st := w.peak, w.set.Stats()
	for _, n := range w.set.Steered {
		t.Shards += uint64(b2i(n > 0))
	}
	t.Dropped, t.Drains, t.DrainedConns, t.Salvaged = w.link.Dropped, st.Drains, st.DrainedConns, st.SalvagedFrames
	t.Shed, t.HandoffShed, t.Migrations = st.ShedInboxFull, st.ShedHandoffFull, w.set.Migrations
	return t
}

// world is one configuration running the schedule; failures name it.
type world struct {
	testing.TB
	name   string
	client *engine.Stack
	server engine.LossyServer
	stacks []*engine.Stack // the server's
	set    *StackSet       // nil in the reference world
	faults bool            // this world opens the schedule's fault windows
	link   *engine.Link
	now    float64
	slots  [oracleSlots]struct {
		conn    *engine.Conn
		todo    []step
		waiting bool // a request is awaiting its response
		got     []byte
	}
	served [oracleSlots][]byte
	moved  bool   // a Rekey or FailOver has run, so away may hold entries
	drains uint64 // drains accounted for so far
	peak   tally  // its Away and Queued
	win    struct {
		on, alive, rehomed bool // rehomed: a drain or rekey re-homed what the window holds
		v                  FaultVerdict
		shard, backlog     int // backlog: frames on the shard's inbox when the watchdog drained it
		start, queuedAt    float64
		st                 Stats // and the two counters below, as the window opened
		events, steered    uint64
	}
}

func (w *world) Fatalf(format string, args ...any) {
	w.TB.Helper()
	w.TB.Fatalf(w.name+": "+format, args...)
}

// checked is a set world's server face: a frame must leave the ledger
// balanced and be shed (a refusal) at a wedged shard or a faulted one with
// a full backlog, queued at any other faulted shard, never shed elsewhere.
type checked struct {
	*StackSet
	w *world
}

func (c checked) Deliver(frame []byte) (core.Result, error) {
	set := c.StackSet
	steered, queued := [4]uint64{}, [4]int{}
	for i := range set.inbox {
		steered[i], queued[i] = set.Steered[i], set.inbox[i].len()
	}
	shed, events := set.m.ShedInboxFull.Value(), set.InboxFullEvents
	res, err := set.Deliver(frame)
	for i := range set.inbox {
		if v := set.verdict(i); set.Steered[i] != steered[i] && set.alive(i) {
			refused := v.Wedge || v != (FaultVerdict{}) && queued[i] == DefaultInboxCap
			if d := uint64(b2i(refused)); set.m.ShedInboxFull.Value()-shed != d || set.InboxFullEvents-events != d ||
				v != (FaultVerdict{}) && !refused && set.inbox[i].len() != queued[i]+1 {
				c.w.Fatalf("frame for shard %d under %+v with %d queued: shed %d, refused %d, %d queued after",
					i, v, queued[i], set.m.ShedInboxFull.Value()-shed, set.InboxFullEvents-events, set.inbox[i].len())
			}
		}
	}
	if acc := set.Accounting(); !acc.Balanced() {
		c.w.Fatalf("unaccounted frames: %+v", acc)
	}
	return res, err
}

func newWorlds(t *testing.T, s *schedule) []*world {
	ref := engine.NewStack(oracleServer, core.NewMapDemux(), 1)
	ws := []*world{{TB: t, name: "reference", server: ref, stacks: []*engine.Stack{ref}}}
	for _, name := range discipline.Names() {
		sel, err := discipline.Select(name, "multiplicative", 19)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 4, -4} { // -4: four shards with the fault windows
			set, err := NewStackSet(oracleServer, Config{Shards: max(shards, -shards), NewDemuxer: sel.PerShard(), Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			set.SetTelemetry(telemetry.NewRegistry()) // so Shard(0).Stats() sums the shards
			w := &world{TB: t, name: fmt.Sprintf("%s/%d shards%s", name, set.Shards(), map[bool]string{true: "/faults"}[shards < 0]),
				stacks: set.shards, set: set, faults: shards < 0}
			w.server = checked{set, w}
			ws = append(ws, w)
		}
	}
	for _, w := range ws {
		w.client = engine.NewStack(oracleClient, core.NewMapDemux(), 2)
		w.client.SetTimers(oracleRTO, oracleRetries, oracleMSL)
		w.server.SetTimers(oracleRTO, oracleRetries, oracleMSL)
		w.server.SetBacklog(2 * oracleSlots)
		if err := w.server.Listen(oraclePort, w.handle); err != nil {
			t.Fatal(err)
		}
		w.link = engine.NewLink(w.client, w.server, s.linkConfig())
	}
	return ws
}

// handle records every payload and answers requests, not bursts: an answer
// lost to a burst's early segment would never be retransmitted.
func (w *world) handle(c *engine.Conn, p []byte) []byte {
	slot := int(c.Key().RemotePort - 40000)
	if w.served[slot] = append(w.served[slot], p...); p[0] == 'b' {
		return nil
	}
	return append(append([]byte("ok<"), p...), '>')
}

// holders maps each connection PCB of the server to the stack holding it.
func (w *world) holders() map[core.Key]int {
	out := make(map[core.Key]int)
	for i, s := range w.stacks {
		for _, p := range s.PCBs() {
			if !p.Key.IsWildcard() {
				out[p.Key] = i
			}
		}
	}
	return out
}

func (w *world) deliver(frames ...[]byte) {
	for _, f := range frames {
		if _, err := w.server.Deliver(f); err != nil {
			w.Fatalf("deliver: %v", err)
		}
	}
}

// try carries out a slot's next intent, or reports false while it must
// wait: an open until neither end holds the reset connection (frames of
// it may still be in flight or queued), the rest for an established
// connection with no request outstanding, and a burst or RST for a shard
// that takes it all.
func (w *world) try(slot int, in step) bool {
	s, key, set := &w.slots[slot], slotKey(slot), w.set
	if in.op == opOpen {
		if _, held := w.holders()[key]; s.conn != nil && (s.conn.State() != core.StateClosed || held) {
			return false
		} else if set != nil {
			set.Release(key)
		}
	} else if s.conn.State() != core.StateEstablished || s.waiting {
		return false
	} else if in.op == opFragment || in.op == opBurst || in.op == opReset {
		if set != nil && in.op != opFragment {
			at := set.homeOf(set.steer.Shard(key.Tuple()), key)
			if set.verdict(at).Wedge || set.inbox[at].len()+max(len(in.data), 1) > DefaultInboxCap {
				return false
			}
		}
		for _, f := range w.client.Drain() { // on the wire before what goes straight to the server
			w.link.Inject(f, true, w.now)
		}
	}
	var err error
	switch in.op {
	case opOpen:
		s.conn, err = w.client.Connect(oracleServer, oraclePort, key.RemotePort, nil)
	case opRequest, opFragment:
		if err, s.waiting = s.conn.Send(in.data[0]), true; err == nil && in.op == opFragment {
			w.deliver(fragments(w, w.client.Drain()[0], in.id, in.b%3)...)
		} else if len(in.data) > 1 { // the next request waits for this one's answer
			s.todo[0].data = in.data[1:]
			return false
		}
	case opBurst:
		for _, p := range in.data {
			if err = s.conn.Send(p); err != nil {
				break
			}
		}
		w.deliver(w.client.Drain()...)
	case opReset:
		seq := w.client.Demuxer().Lookup(s.conn.Key(), core.DirData).PCB.SndNxt
		rst, _ := wire.BuildSegment(wire.IPv4Header{TTL: 64, Src: oracleClient, Dst: oracleServer},
			wire.TCPHeader{SrcPort: key.RemotePort, DstPort: oraclePort, Seq: seq, Flags: wire.FlagRST}, nil)
		w.deliver(rst)
		fallthrough
	case opClose:
		err = s.conn.Close()
	}
	if err != nil {
		w.Fatalf("slot %d op %d: %v", slot, in.op, err)
	}
	return true
}

// fragments gives frame IP ID id and splits it: 0 overlaps a finer split
// (less its last piece) with a coarser one, 1 sends all but the last piece
// twice, 2 never sends the last, leaving it to the client's retransmission.
func fragments(tb testing.TB, frame []byte, id uint16, mode byte) [][]byte {
	seg, err := wire.ParseSegment(frame)
	if err == nil {
		seg.IP.ID = id
		frame, err = wire.BuildSegment(seg.IP, seg.TCP, seg.Payload)
	}
	a, err2 := frag.Fragment(frame, 48)
	b, err3 := frag.Fragment(frame, 32)
	if err != nil || err2 != nil || err3 != nil {
		tb.Fatalf("fragment: %v, %v, %v", err, err2, err3)
	}
	return [3][][]byte{append(b[:len(b)-1:len(b)-1], a...), append(a[:len(a)-1:len(a)-1], a...), a[:len(a)-1]}[mode]
}

// pump collects responses and carries out every intent that can go now.
func (w *world) pump() {
	for i := range w.slots {
		s := &w.slots[i]
		for s.conn != nil && s.conn.Pending() > 0 {
			s.got, s.waiting = append(s.got, s.conn.Receive()...), false
		}
		for len(s.todo) > 0 && w.try(i, s.todo[0]) {
			s.todo = s.todo[1:]
		}
	}
}

// idle: no intent queued or outstanding, no client connection opening or
// closing, the link empty. finished: every connection closed at both ends.
func (w *world) idle() bool {
	for _, s := range w.slots {
		if c := s.conn; len(s.todo) > 0 || s.waiting ||
			c != nil && c.State() != core.StateEstablished && c.State() != core.StateClosed && c.State() != core.StateTimeWait {
			return false
		}
	}
	return w.link.Idle()
}

func (w *world) finished() bool {
	for _, s := range w.slots {
		if s.conn != nil && s.conn.State() == core.StateEstablished {
			return false
		}
	}
	return w.idle() && len(w.holders()) == 0
}

// advance runs one Shuttle/Tick round and the checks that follow a Tick.
func (w *world) advance(now float64) {
	w.now = now
	if err := w.link.Shuttle(now); err != nil {
		w.Fatalf("%v", err)
	}
	w.client.Tick(now)
	queued := 0 // the window's backlog as the Tick whose watchdog may drain it begins
	if w.set != nil {
		queued = w.set.inbox[w.win.shard].len()
	}
	w.server.Tick(now)
	if set := w.set; set != nil {
		if w.win.on && w.win.v.Stall && w.win.queuedAt < 0 && set.inbox[w.win.shard].len() > 0 {
			w.win.queuedAt = now
		}
		if d := set.Stats().Drains; d != w.drains {
			if !w.win.on || w.win.v.Wedge {
				w.Fatalf("drain at t=%.3f with no crash or stall", now)
			}
			w.drains, w.win.backlog = d, queued
		}
		w.check()
	}
	w.pump()
}

// check holds a set to its ledger, checkOwnership, and an empty away
// until a rekey or drain.
func (w *world) check() {
	acc := w.set.Accounting()
	if !acc.Balanced() {
		w.Fatalf("unaccounted frames: %+v", acc)
	}
	checkOwnership(w, w.set)
	w.peak.Away, w.peak.Queued = max(w.peak.Away, uint64(len(w.set.away))), max(w.peak.Queued, acc.Queued)
	if !w.moved && w.drains == 0 && len(w.set.away) != 0 {
		w.Fatalf("away holds %d entries with no rekey or drain", len(w.set.away))
	}
}

// target resolves a fault or failover argument to a shard, and refuses once
// two shards are drained, so that a last fault window leaves a survivor.
func (w *world) target(b byte) (int, bool) {
	drained, key := 0, slotKey(int(b)%oracleSlots)
	for i := range w.set.shards {
		drained += b2i(w.set.Drained(i))
	}
	if b < 128 {
		return int(b) % w.set.Shards(), drained < 2
	}
	return w.set.homeOf(w.set.steer.Shard(key.Tuple()), key), drained < 2
}

func (w *world) openWindow(kind, b byte) {
	w.closeWindow()
	if sh, ok := w.target(b); ok {
		set, v := w.set, [3]FaultVerdict{{Crash: true}, {Stall: true}, {Wedge: true}}[kind%3]
		set.SetFaultFunc(func(i int, _ float64) FaultVerdict {
			if i != sh {
				return FaultVerdict{}
			}
			return v
		})
		w.win.on, w.win.alive, w.win.rehomed, w.win.v, w.win.shard = true, set.alive(sh), false, v, sh
		w.win.start, w.win.queuedAt, w.win.st, w.win.events, w.win.steered = w.now, -1, set.Stats(), set.InboxFullEvents, set.Steered[sh]
	}
}

// closeWindow ends the fault window and checks the watchdog's verdict. A
// wedge sheds exactly the frames steered at its shard and never drains it.
// A crash drains its shard once when it outlasts DefaultStallThreshold, a
// stall once when a frame waited that long on the backlog (give or take
// 0.1 s), neither sooner. The drain salvages exactly the shard's backlog,
// which a stall always has; recovery is in (0, 2×DefaultStallThreshold]
// with a backlog, and 0 for a crash drained with none.
func (w *world) closeWindow() {
	win, set := w.win, w.set
	w.win.on = false
	set.SetFaultFunc(nil)
	st, sh, thr := set.Stats(), win.shard, DefaultStallThreshold
	drains, steered := st.Drains-win.st.Drains, set.Steered[sh]-win.steered
	rec, salvaged := st.LastDrainRecovery, st.SalvagedFrames-win.st.SalvagedFrames
	want := -1 // either verdict is right this close to the threshold
	switch {
	case !win.on || !win.alive || win.rehomed:
		return
	case win.v.Wedge:
		if drains != 0 || st.ShedInboxFull-win.st.ShedInboxFull != steered || set.InboxFullEvents-win.events != steered {
			w.Fatalf("wedge of shard %d: %d drains, %d shed and %d refusals for %d frames steered at it",
				sh, drains, st.ShedInboxFull-win.st.ShedInboxFull, set.InboxFullEvents-win.events, steered)
		}
		return
	case w.now-win.start < thr-0.1, win.v.Stall && win.queuedAt < 0:
		want = 0
	case win.v.Crash && w.now-win.start > thr+0.1, win.v.Stall && w.now-win.queuedAt > thr+0.1:
		want = 1
	}
	if drains > 1 || want >= 0 && drains != uint64(want) || drains == 1 && (!set.Drained(sh) || rec < 0 || rec > 2*thr ||
		(rec > 0) != (win.backlog > 0) || salvaged != uint64(win.backlog) || win.v.Stall && win.backlog == 0 ||
		set.LastDrainAt <= win.start || set.LastDrainAt > w.now) {
		w.Fatalf("%+v window on shard %d over [%.3f, %.3f]: %d drains (want %d), drained=%v, recovery %v at %v, %d of %d queued salvaged",
			win.v, sh, win.start, w.now, drains, want, set.Drained(sh), rec, set.LastDrainAt, salvaged, win.backlog)
	}
}

// control runs a Rekey or FailOver and holds its count to the connections
// that changed shard (or closed: a FailOver re-delivers salvaged frames).
func (w *world) control(do func() int) int {
	before, n := w.holders(), do()
	after, changed, gone := w.holders(), 0, 0
	for k, at := range before {
		now, ok := after[k]
		changed, gone = changed+b2i(ok && now != at), gone+b2i(!ok)
	}
	if n < changed || n > changed+gone {
		w.Fatalf("moved %d connections, but %d changed shard and %d closed", n, changed, gone)
	}
	w.moved = true
	return n
}

// rekey runs Rekey: a connection now steered to a wedged shard is refused
// there, and counted as one handoff-full shed.
func (w *world) rekey() {
	set, wedged := w.set, -1
	if w.win.on && w.win.v.Wedge && set.alive(w.win.shard) {
		wedged = w.win.shard
	}
	shed, rekeys, migrations := set.Stats().ShedHandoffFull, set.Rekeys, set.Migrations
	w.win.rehomed = w.win.rehomed || set.Accounting().Queued > 0
	n, refused := w.control(set.Rekey), 0
	for k, at := range w.holders() {
		home := set.steer.Shard(k.Tuple())
		refused += b2i(home == wedged && at != home)
	}
	if got := set.Stats().ShedHandoffFull - shed; got != uint64(refused) || set.Rekeys != rekeys+1 || set.Migrations != migrations+uint64(n) {
		w.Fatalf("rekey moving %d: %d handoffs shed for %d steered to wedged shard %d, Rekeys %d → %d, Migrations %d → %d",
			n, got, refused, wedged, rekeys, set.Rekeys, migrations, set.Migrations)
	}
}

// failOver drains a shard, but not into a wedge with frames queued: the
// wedge would shed them, and a burst's segments are never retransmitted.
// The drain salvages exactly the frames on the shard's own inbox.
func (w *world) failOver(b byte) {
	set := w.set
	if sh, ok := w.target(b); set.Shards() > 1 && ok && !(w.win.on && w.win.v.Wedge && set.Accounting().Queued > 0) {
		was, queued := set.Stats(), uint64(set.inbox[sh].len())
		if n := w.control(func() int { return set.FailOver(sh) }); !set.Drained(sh) || set.Stats().DrainedConns-was.DrainedConns != uint64(n) ||
			set.Stats().SalvagedFrames-was.SalvagedFrames != queued {
			w.Fatalf("FailOver(%d) moved %d: drained=%v, DrainedConns +%d, %d of its %d queued salvaged", sh, n, set.Drained(sh),
				set.Stats().DrainedConns-was.DrainedConns, set.Stats().SalvagedFrames-was.SalvagedFrames, queued)
		}
		w.win.rehomed, w.drains = true, set.Stats().Drains
	}
}

// runOracle runs the schedule in every world and compares, and holds each
// world with the fault windows to the floor.
func runOracle(t *testing.T, s *schedule, floor tally) {
	ws, ticks, budget := newWorlds(t, s), 0, 6000 // 30 s for the steps
	run := func(limit int, done func(*world) bool) {
		for end, busy := min(ticks+limit, budget), true; ticks < end && busy; ticks++ {
			busy = false
			for _, w := range ws {
				if done == nil || !done(w) {
					busy = true
					w.advance(float64(ticks+1) * oracleStride)
				}
			}
		}
	}
	for _, st := range s.steps {
		for _, w := range ws {
			switch slot := &w.slots[int(st.a)%oracleSlots]; {
			case st.op <= opReset:
				slot.todo = append(slot.todo, st)
			case w.set == nil:
			case st.op == opFault && w.faults:
				w.openWindow(st.a, st.b)
			case st.op == opClear && w.faults:
				w.closeWindow()
			case st.op == opRekey:
				w.rekey()
			case st.op == opFailOver:
				w.failOver(st.b)
			}
			if w.pump(); w.set != nil {
				w.check()
			}
		}
		if st.op == opTick {
			run(10*(1+int(st.a%16)), nil)
		} else if st.op == opSettle {
			run(400, (*world).idle)
		}
	}
	budget = ticks + 12000 // and 60 s to finish
	run(20, nil)           // a degraded shard walks back to healthy on a quiet check
	run(12000, (*world).finished)

	ref := ws[0].stacks[0]
	for _, w := range ws {
		for i, sl := range w.slots {
			if !bytes.Equal(sl.got, s.cli[i]) || !bytes.Equal(w.served[i], s.srv[i]) {
				w.Fatalf("slot %d: client received\n%q\nwant\n%q\nserver handled\n%q\nwant\n%q", i, sl.got, s.cli[i], w.served[i], s.srv[i])
			}
		}
		if !w.finished() {
			w.Fatalf("did not finish by t=%.1f", w.now)
		}
		if w.set == nil {
			continue
		}
		for i := range w.slots {
			if h := w.set.Health(i % w.set.Shards()); h != HealthHealthy && h != HealthDrained {
				w.Fatalf("shard %d ends %v", i%w.set.Shards(), h)
			}
			w.set.Release(slotKey(i))
		}
		if len(w.set.away) != 0 {
			w.Fatalf("away holds %d entries once every connection is closed and released", len(w.set.away))
		}
		if got, min := reflect.ValueOf(w.tally()), reflect.ValueOf(floor); w.faults {
			for i := range min.NumField() {
				if got.Field(i).Uint() < min.Field(i).Uint() {
					w.Fatalf("%s %d, below the seed's floor of %d", min.Type().Field(i).Name, got.Field(i).Uint(), min.Field(i).Uint())
				}
			}
		}
		if s.link&0x2f == 0 && !w.faults { // a link that neither drops, duplicates nor corrupts
			r, a, se, tw := w.set.LifecycleCounters()
			r2, a2, se2, tw2 := ref.LifecycleCounters()
			if got, want := fmt.Sprintf("%+v %d %d %d %d", w.set.Shard(0).Stats(), r, a, se, tw), fmt.Sprintf("%+v %d %d %d %d", ref.Stats(), r2, a2, se2, tw2); got != want {
				w.Fatalf("counters on a lossless link:\n%s\nreference:\n%s", got, want)
			}
		}
	}
}

// seed encodes a schedule: the link byte, the link's seed, then steps.
func seed(link, linkSeed byte, steps ...[]byte) []byte {
	return append([]byte{link, linkSeed}, bytes.Join(steps, nil)...)
}

// op is one step; each is op o on every slot in [0, n).
func op(o, a, b byte) []byte { return []byte{o, a, b} }

func each(n int, o, b byte) (out []byte) {
	for i := 0; i < n; i++ {
		out = append(out, o, byte(i), b)
	}
	return out
}

// Link bytes: drop 20 % (3) or 10 % (2), dup 10 % (8) or 5 % (4), jitter (16), chaos (32).
const (
	lossy, mild                    = 3 | 8 | 16, 2 | 4 | 16
	crash, stall, wedge, slotShard = 0, 1, 2, 128
)

// oracleSeeds, the gate `go test` runs (FuzzStackSet/seed#i is entry i): the
// first nine are the replaced per-feature suites' scenarios, each with the
// floor that shows it happened; rekey-past-backlog found a rekey stranding
// a mover's backlog, and failover-beside-stall drains one shard while
// another holds a backlog.
var oracleSeeds = []struct {
	name  string
	data  []byte
	floor tally
}{
	{"sharded-lossy", seed(lossy, 1, each(8, opOpen, 0), each(8, opRequest, 3), each(8, opRequest, 3), each(8, opRequest, 3)), tally{Shards: 2, Dropped: 1}},
	{"sharded-chaos", seed(mild|32, 2, each(8, opOpen, 0), each(8, opRequest, 3), each(8, opRequest, 3), each(8, opRequest, 3)), tally{Shards: 2, Dropped: 1}},
	{"rekey-mid-exchange", seed(mild, 3, each(12, opOpen, 0), each(12, opRequest, 3), op(opTick, 3, 0), op(opRekey, 0, 0), op(opRekey, 0, 0), each(12, opRequest, 3), each(12, opRequest, 1)), tally{Migrations: 1}},
	{"crash-failover-lossy", seed(lossy, 4, each(8, opOpen, 0), each(8, opRequest, 3), op(opTick, 3, 0), op(opFault, crash, slotShard), each(8, opRequest, 3), op(opTick, 15, 0), op(opClear, 0, 0), each(8, opRequest, 3)), tally{Drains: 1, DrainedConns: 1, Salvaged: 1}},
	{"stall-failover", seed(lossy, 5, each(8, opOpen, 0), each(8, opRequest, 1), op(opSettle, 0, 0), op(opFault, stall, slotShard), each(8, opRequest, 1), op(opTick, 15, 0), op(opClear, 0, 0), each(8, opRequest, 1)), tally{Drains: 1, Salvaged: 1}},
	{"wedge-degrades", seed(lossy, 6, each(8, opOpen, 0), each(8, opRequest, 3), op(opTick, 3, 0), op(opFault, wedge, slotShard), op(opTick, 5, 0), op(opClear, 0, 0), each(8, opRequest, 3)), tally{Shed: 1}},
	{"backlog-partly-filled", seed(0, 7, op(opOpen, 0, 0), op(opSettle, 0, 0), op(opFault, stall, slotShard), op(opBurst, 0, 1), op(opClear, 0, 0), op(opBurst, 0, 1), op(opSettle, 0, 0)), tally{Queued: 2}},
	{"backlog-full", seed(0, 8, op(opOpen, 0, 0), op(opSettle, 0, 0), op(opFault, stall, slotShard), op(opBurst, 0, DefaultInboxCap-1), op(opClear, 0, 0), op(opBurst, 0, 0), op(opSettle, 0, 0)), tally{Queued: DefaultInboxCap}},
	{"handoff-wedge", seed(0, 9, each(8, opOpen, 0), op(opSettle, 0, 0), op(opFault, wedge, 1), op(opRekey, 0, 0), op(opRekey, 0, 0), op(opRekey, 0, 0), op(opRekey, 0, 0), op(opClear, 0, 0), each(8, opRequest, 0)), tally{HandoffShed: 1, Away: 1}},
	{"fragments", seed(0, 11, each(3, opOpen, 0), op(opSettle, 0, 0), op(opFragment, 0, 0), op(opFragment, 1, 1), op(opFragment, 2, 2), op(opFragment, 0, 2), op(opRekey, 0, 0), op(opFragment, 1, 0)), tally{}},
	{"reset-reopen", seed(0, 12, each(4, opOpen, 0), each(4, opRequest, 0), op(opRekey, 0, 0), op(opReset, 0, 0), op(opClose, 1, 0), op(opReset, 2, 0), op(opOpen, 0, 0), op(opOpen, 1, 0), op(opOpen, 2, 0), each(3, opRequest, 1)), tally{}},
	{"rekey-past-backlog", seed(0, 14, each(8, opOpen, 0), op(opSettle, 0, 0), op(opFault, stall, slotShard), op(opBurst, 0, 3), op(opRekey, 0, 0), op(opRekey, 0, 0), op(opRekey, 0, 0), op(opClear, 0, 0), each(8, opRequest, 0)), tally{}},
	{"failover-beside-stall", seed(0, 15, each(8, opOpen, 0), op(opSettle, 0, 0), op(opFault, stall, slotShard), op(opBurst, 0, 3), op(opFailOver, 0, 1), op(opClear, 0, 0), each(8, opRequest, 0)), tally{}},
	{"failover-twice", seed(0, 13, each(6, opOpen, 0), op(opSettle, 0, 0), op(opFailOver, 0, slotShard), op(opOpen, 6, 0), op(opOpen, 7, 0), op(opOpen, 8, 0), op(opSettle, 0, 0), op(opFailOver, 0, slotShard|6), each(9, opRequest, 0)), tally{}},
}
