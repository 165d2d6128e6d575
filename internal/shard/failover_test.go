package shard

import (
	"bytes"
	"fmt"
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/engine"
	"tcpdemux/internal/hashfn"
	"tcpdemux/internal/telemetry"
	"tcpdemux/internal/wire"
)

// probeLossy runs the unfaulted lossy conformance exchange against a
// fresh n-shard set and returns both, so a failure test built on the
// same seeds can pick a victim shard that demonstrably owns traffic and
// a fault time that demonstrably lands mid-run. Both runs are fully
// deterministic, so the probe's steering matches the faulted run's
// steering exactly up to the fault.
func probeLossy(t *testing.T, n int, seed uint64) (*StackSet, *engine.LossyResult) {
	t.Helper()
	set := newSet(t, n, seed)
	res, err := engine.RunLossyExchange(nil, lossyCfg(set))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("probe exchange did not complete (t=%v)", res.VirtualTime)
	}
	return set, res
}

func busiest(steered []uint64) int {
	best := 0
	for i, n := range steered {
		if n > steered[best] {
			best = i
		}
	}
	_ = steered[best]
	return best
}

// faultOn builds a FaultFunc applying v to one shard from time at on.
func faultOn(victim int, at float64, v FaultVerdict) FaultFunc {
	return func(sh int, now float64) FaultVerdict {
		if sh == victim && now >= at {
			return v
		}
		return FaultVerdict{}
	}
}

// checkOwnership asserts the one-record invariant after a control-plane
// step: every connection PCB that has a claim lives on the shard its
// claim names, and no connection is left on a shard that can no longer
// accept work — so the claim of every live connection names a live
// shard. (The claim of a connection that closed before a drain may
// still name the corpse until Release or the next Rekey sweeps it.) It
// also recounts the displaced claims and holds the set's own count to
// the result.
func checkOwnership(t *testing.T, set *StackSet) {
	t.Helper()
	for i := 0; i < set.Shards(); i++ {
		for _, ci := range set.Shard(i).Netstat() {
			if ci.Key.IsWildcard() {
				continue
			}
			if !set.alive(i) {
				t.Fatalf("PCB %v left on shard %d, which is %v", ci.Key, i, set.Health(i))
			}
			if cl, ok := set.claims[ci.Key]; ok && cl.owner != i {
				t.Fatalf("PCB %v lives on shard %d but its claim names shard %d", ci.Key, i, cl.owner)
			}
		}
	}
	// The count homeOf's fast path trusts is exactly the number of claims
	// the steering hash alone would misroute.
	displaced := 0
	for k, cl := range set.claims {
		if cl.owner != set.Steering().Shard(k.Tuple()) {
			displaced++
		}
	}
	if set.displaced != displaced {
		t.Fatalf("displaced = %d, but %d claim(s) name a shard other than their key's steered one", set.displaced, displaced)
	}
}

// ownershipChecked is a StackSet that re-asserts checkOwnership after
// every Tick — the watchdog's drain runs inside Tick, so this is the
// first instant a harness-driven failover can be inspected.
type ownershipChecked struct {
	*StackSet
	t *testing.T
}

func (c ownershipChecked) Tick(now float64) {
	c.StackSet.Tick(now)
	checkOwnership(c.t, c.StackSet)
}

// counterValue reads one unlabelled counter out of a registry snapshot.
func counterValue(t *testing.T, reg *telemetry.Registry, name string) uint64 {
	t.Helper()
	for _, c := range reg.Snapshot().Counters {
		if c.Name == name && len(c.Labels) == 0 {
			return c.Value
		}
	}
	t.Fatalf("counter %s not registered", name)
	return 0
}

// TestCrashFailoverConformanceLossy is the failure-domain acceptance
// gate: crash 1 of 4 shards mid-run under the 20% drop / 10% dup link.
// The watchdog must detect the frozen clock, drain the victim's
// connections into the survivors, and every client — surviving and
// drained alike — must still collect byte-identical responses to the
// unfaulted single-stack run, with the conservation ledger balanced.
func TestCrashFailoverConformanceLossy(t *testing.T) {
	single, err := engine.RunLossyExchange(
		core.NewSequentHash(0, hashfn.Multiplicative{}), lossyCfg(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !single.Completed {
		t.Fatalf("single-shard exchange did not complete (t=%v)", single.VirtualTime)
	}

	probe, probeRes := probeLossy(t, 4, 77)
	victim := busiest(probe.Steered)
	crashAt := probeRes.VirtualTime * 0.4
	if crashAt < 0.3 {
		crashAt = 0.3
	}

	set := newSet(t, 4, 77)
	set.SetFaultFunc(faultOn(victim, crashAt, FaultVerdict{Crash: true}))
	sharded, err := engine.RunLossyExchange(nil, lossyCfg(ownershipChecked{set, t}))
	if err != nil {
		t.Fatal(err)
	}
	if !sharded.Completed {
		t.Fatalf("faulted exchange did not complete (t=%v)", sharded.VirtualTime)
	}
	if sharded.VirtualTime <= crashAt {
		t.Fatalf("exchange finished at %v, before the crash at %v", sharded.VirtualTime, crashAt)
	}

	for i := range single.Responses {
		if !bytes.Equal(single.Responses[i], sharded.Responses[i]) {
			t.Fatalf("client %d responses differ after failover:\nsingle:  %q\nfaulted: %q",
				i, single.Responses[i], sharded.Responses[i])
		}
	}

	st := set.Stats()
	if st.Drains != 1 {
		t.Fatalf("Drains = %d, want exactly 1", st.Drains)
	}
	if !set.Drained(victim) || set.Health(victim) != HealthDrained {
		t.Fatalf("victim shard %d health = %v, want drained", victim, set.Health(victim))
	}
	if st.DrainedConns == 0 {
		t.Fatalf("drain rehomed no connections off the busiest shard (steered %v)", probe.Steered)
	}
	if set.LastDrainAt <= crashAt {
		t.Fatalf("LastDrainAt = %v, not after the crash at %v", set.LastDrainAt, crashAt)
	}
	// Recovery latency is bounded by the stall threshold plus detection
	// slack — the "bounded number of virtual-time ticks" acceptance bound.
	if st.LastDrainRecovery <= 0 || st.LastDrainRecovery > 2*DefaultStallThreshold {
		t.Fatalf("LastDrainRecovery = %v, want in (0, %v]", st.LastDrainRecovery, 2*DefaultStallThreshold)
	}
	if acc := set.Accounting(); !acc.Balanced() {
		t.Fatalf("unaccounted packet losses: %+v", acc)
	}
}

// TestStallFailoverDetectsStuckConsumer covers the second detection
// path: the victim's clock keeps beating but its consumer stops, so the
// watchdog must catch it through the progress counter, salvage the
// frames aged on its inbox, and drain it — with conformance and
// conservation intact.
func TestStallFailoverDetectsStuckConsumer(t *testing.T) {
	probe, probeRes := probeLossy(t, 4, 77)
	victim := busiest(probe.Steered)
	stallAt := probeRes.VirtualTime * 0.4
	if stallAt < 0.3 {
		stallAt = 0.3
	}

	set := newSet(t, 4, 77)
	set.SetFaultFunc(faultOn(victim, stallAt, FaultVerdict{Stall: true}))
	res, err := engine.RunLossyExchange(nil, lossyCfg(ownershipChecked{set, t}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("stalled exchange did not complete (t=%v)", res.VirtualTime)
	}
	if d := set.Stats().Drains; d != 1 || !set.Drained(victim) {
		t.Fatalf("stall not drained: drains=%d health=%v", d, set.Health(victim))
	}
	// A stalled consumer leaves its inbox backlog in place; the drain
	// must have salvaged it rather than dropping it on the floor.
	if set.Stats().SalvagedFrames == 0 {
		t.Fatal("no frames salvaged from the stalled shard's inbox")
	}
	if acc := set.Accounting(); !acc.Balanced() {
		t.Fatalf("unaccounted packet losses: %+v", acc)
	}
}

// TestWedgeDegradesWithoutDrain checks the degradation ladder: a shard
// whose queues refuse pushes for a bounded window sheds (counted,
// attributed) and is marked Degraded, but its clock and consumer are
// fine, so the watchdog must NOT drain it — and once the wedge clears
// and the sheds stop, the shard must walk back to Healthy while the
// retransmission machinery recovers every lost frame.
func TestWedgeDegradesWithoutDrain(t *testing.T) {
	probe, probeRes := probeLossy(t, 4, 77)
	victim := busiest(probe.Steered)
	wedgeAt := probeRes.VirtualTime * 0.3
	if wedgeAt < 0.3 {
		wedgeAt = 0.3
	}
	wedgeEnd := wedgeAt + 0.3

	set := newSet(t, 4, 77)
	set.SetFaultFunc(func(sh int, now float64) FaultVerdict {
		if sh == victim && now >= wedgeAt && now < wedgeEnd {
			return FaultVerdict{Wedge: true}
		}
		return FaultVerdict{}
	})
	res, err := engine.RunLossyExchange(nil, lossyCfg(set))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("wedged exchange did not complete (t=%v)", res.VirtualTime)
	}
	st := set.Stats()
	if st.Drains != 0 {
		t.Fatalf("a transient wedge must degrade, not drain: drains=%d", st.Drains)
	}
	if set.InboxFullEvents == 0 || st.ShedInboxFull == 0 {
		t.Fatalf("wedge shed nothing: events=%d shed=%d (steered %v)",
			set.InboxFullEvents, st.ShedInboxFull, probe.Steered)
	}
	if set.Health(victim) != HealthHealthy {
		t.Fatalf("victim health = %v after the wedge cleared, want healthy", set.Health(victim))
	}
	if acc := set.Accounting(); !acc.Balanced() {
		t.Fatalf("unaccounted packet losses: %+v", acc)
	}
}

// TestSlowConsumerCapsThroughput checks the mildest fault: a shard
// capped at one frame per delivery keeps working — the exchange
// completes conformantly with no sheds and no drains, just slower.
func TestSlowConsumerCapsThroughput(t *testing.T) {
	probe, _ := probeLossy(t, 4, 77)
	victim := busiest(probe.Steered)

	set := newSet(t, 4, 77)
	set.SetFaultFunc(faultOn(victim, 0, FaultVerdict{MaxConsume: 1}))
	res, err := engine.RunLossyExchange(nil, lossyCfg(set))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("slow-consumer exchange did not complete (t=%v)", res.VirtualTime)
	}
	if d := set.Stats().Drains; d != 0 {
		t.Fatalf("a slow consumer must not be drained: drains=%d", d)
	}
	if acc := set.Accounting(); !acc.Balanced() {
		t.Fatalf("unaccounted packet losses: %+v", acc)
	}
}

// TestInboxBackpressurePreservesOrder pins delivery order across a fault
// transition, where a frame handed straight to the Stack could overtake
// frames an earlier fault left queued. A stalled consumer queues the first
// segments; the fault clears; one more segment arrives and must reach the
// application after everything queued ahead of it. Two backlogs: a partly
// filled one, which the next frame simply joins, and a full one, where the
// backpressure path must drain the queue to make room instead of shedding
// or delivering around it. The ledger balances after every step.
func TestInboxBackpressurePreservesOrder(t *testing.T) {
	for _, c := range []struct {
		name     string
		queued   int
		wantFull bool
	}{
		{"partly filled backlog", 2, false},
		{"full backlog", DefaultInboxCap, true},
	} {
		t.Run(c.name, func(t *testing.T) { backlogThenOne(t, c.queued, c.wantFull) })
	}
}

func backlogThenOne(t *testing.T, queued int, wantFull bool) {
	const port = uint16(1521)
	set := newSet(t, 1, 7)
	var got []string
	if err := set.Listen(port, func(_ *engine.Conn, p []byte) []byte {
		got = append(got, string(p))
		return []byte("ok")
	}); err != nil {
		t.Fatal(err)
	}
	client := engine.NewStack(wire.MakeAddr(10, 0, 0, 2), core.NewMapDemux(), 9)
	conn, err := client.ConnectEphemeral(set.Addr(), port, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Pump(client, set); err != nil {
		t.Fatal(err)
	}
	if conn.State() != core.StateEstablished {
		t.Fatalf("handshake did not complete: %v", conn.State())
	}

	// One real data segment gives us the connection's live header; the
	// rest are crafted at consecutive sequence numbers so all of them are
	// in-order, in-window payloads.
	want := []string{"p0"}
	if err := conn.Send([]byte(want[0])); err != nil {
		t.Fatal(err)
	}
	frames := client.Drain()
	if len(frames) != 1 {
		t.Fatalf("expected 1 data frame, got %d", len(frames))
	}
	seg, err := wire.ParseSegment(frames[0])
	if err != nil {
		t.Fatal(err)
	}
	segs := [][]byte{frames[0]}
	tcp := seg.TCP
	for i := 1; i <= queued; i++ {
		tcp.Seq += uint32(len(want[i-1]))
		want = append(want, fmt.Sprintf("p%d", i))
		f, err := wire.BuildSegment(seg.IP, tcp, []byte(want[i]))
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, f)
	}

	// ledger checks conservation and where the frames delivered since the
	// handshake stand.
	base := set.Accounting()
	ledger := func(wantQueued, wantConsumed int) {
		t.Helper()
		acc := set.Accounting()
		if !acc.Balanced() {
			t.Fatalf("unaccounted packet losses: %+v", acc)
		}
		if acc.Queued != uint64(wantQueued) || acc.Consumed-base.Consumed != uint64(wantConsumed) {
			t.Fatalf("queued %d consumed %d, want %d and %d: %+v",
				acc.Queued, acc.Consumed-base.Consumed, wantQueued, wantConsumed, acc)
		}
	}
	ledger(0, 0)

	// Stall the consumer while all but the last segment arrive: they queue.
	set.SetFaultFunc(func(int, float64) FaultVerdict { return FaultVerdict{Stall: true} })
	for i, f := range segs[:queued] {
		if _, err := set.Deliver(f); err != nil {
			t.Fatal(err)
		}
		ledger(i+1, 0)
	}
	if len(got) != 0 {
		t.Fatalf("stalled consumer delivered %d payloads", len(got))
	}

	// Consumer recovers and the last segment arrives behind the backlog.
	set.SetFaultFunc(nil)
	if _, err := set.Deliver(segs[queued]); err != nil {
		t.Fatal(err)
	}
	ledger(0, queued+1)
	if full := set.InboxFullEvents != 0; full != wantFull {
		t.Fatalf("InboxFullEvents = %d, want a full backlog: %v", set.InboxFullEvents, wantFull)
	}
	if shed := set.Stats().ShedInboxFull; shed != 0 {
		t.Fatalf("backpressure shed %d frames with a live consumer", shed)
	}
	if len(got) != len(want) {
		t.Fatalf("delivered %d payloads, want %d: %q", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("payload %d = %q, want %q (reordered delivery): %q", i, got[i], w, got)
		}
	}
}

// TestHandoffWedgeRevertsRekey drives the handoff queue-full fallback: a
// rekey that tries to migrate connections into a shard whose queues are
// wedged must exhaust its bounded retries, revert each move, and leave
// every connection answering on its original shard — migration
// capability shed, connections never lost.
func TestHandoffWedgeRevertsRekey(t *testing.T) {
	const (
		port    = uint16(1521)
		clients = 8
	)
	set := newSet(t, 2, 13)
	if err := set.Listen(port, func(_ *engine.Conn, p []byte) []byte {
		return append(append([]byte("ok<"), p...), '>')
	}); err != nil {
		t.Fatal(err)
	}
	set.SetBacklog(clients)

	client := engine.NewStack(wire.MakeAddr(10, 0, 0, 2), core.NewMapDemux(), 8)
	conns := make([]*engine.Conn, clients)
	for i := range conns {
		c, err := client.ConnectEphemeral(set.Addr(), port, nil)
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	if _, err := engine.Pump(client, set); err != nil {
		t.Fatal(err)
	}
	for i, c := range conns {
		if c.State() != core.StateEstablished {
			t.Fatalf("conn %d handshake did not complete: %v", i, c.State())
		}
	}

	// Wedge shard 1's queues, then rekey until some mover aims at it and
	// has to revert. Movers toward shard 0 still succeed — the wedge is
	// a property of the destination, not of the rekey.
	set.SetFaultFunc(func(sh int, _ float64) FaultVerdict {
		if sh == 1 {
			return FaultVerdict{Wedge: true}
		}
		return FaultVerdict{}
	})
	for tries := 0; tries < 16 && set.Stats().ShedHandoffFull == 0; tries++ {
		set.Rekey()
		checkOwnership(t, set)
	}
	st := set.Stats()
	if st.ShedHandoffFull == 0 {
		t.Fatal("no rekey tried to move a connection into the wedged shard")
	}
	if st.HandoffFullEvents == 0 {
		t.Fatal("wedged handoff queue not counted as full")
	}
	if st.StaleHandoffs != 0 {
		t.Fatalf("StaleHandoffs = %d during quiesced rekeys", st.StaleHandoffs)
	}
	set.SetFaultFunc(nil)

	// The claims table must agree with where the PCBs actually live.
	owned := make([]map[core.Key]bool, set.Shards())
	for i := range owned {
		owned[i] = make(map[core.Key]bool)
		for _, ci := range set.Shard(i).Netstat() {
			if !ci.Key.IsWildcard() {
				owned[i][ci.Key] = true
			}
		}
	}
	for k, cl := range set.claims {
		if !owned[cl.owner][k] {
			t.Fatalf("claim for %v names shard %d but the PCB is not there", k, cl.owner)
		}
	}

	// Every connection — reverted movers included, despite the steering
	// function now pointing elsewhere — must still answer. The reverted
	// movers are displaced, so the count is non-zero and homeOf is reading
	// the claims for these frames, not trusting the hash.
	if set.displaced == 0 {
		t.Fatal("reverted moves left no claim displaced")
	}
	for i, c := range conns {
		if err := c.Send([]byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := engine.Pump(client, set); err != nil {
		t.Fatal(err)
	}
	for i, c := range conns {
		want := []byte{'o', 'k', '<', byte('a' + i), '>'}
		if got := c.Receive(); !bytes.Equal(got, want) {
			t.Fatalf("conn %d after reverted rekey: got %q want %q", i, got, want)
		}
	}

	// Releasing the claims one by one takes each displaced one out of the
	// count, and only those; with the last one gone the fast path is back.
	var keys []core.Key
	for k := range set.claims {
		keys = append(keys, k)
	}
	for _, k := range keys {
		set.Release(k)
		checkOwnership(t, set)
	}
	if set.displaced != 0 || len(set.claims) != 0 {
		t.Fatalf("after releasing every claim: displaced = %d, %d claim(s) left", set.displaced, len(set.claims))
	}
}

// oneConn is a 2-shard set, homed on its own registry, with a single
// established connection: its key, the shard its SYN steered to (home),
// and the other shard.
type oneConn struct {
	set         *StackSet
	reg         *telemetry.Registry
	client      *engine.Stack
	conn        *engine.Conn
	key         core.Key
	home, other int
}

// oneConnPort is the fixture's listening port.
const oneConnPort = uint16(1521)

func establishOne(t *testing.T) oneConn {
	t.Helper()
	f := oneConn{set: newSet(t, 2, 11), reg: telemetry.NewRegistry()}
	f.set.SetTelemetry(f.reg)
	if err := f.set.Listen(oneConnPort, func(_ *engine.Conn, p []byte) []byte {
		return append(append([]byte("ok<"), p...), '>')
	}); err != nil {
		t.Fatal(err)
	}
	f.client = engine.NewStack(wire.MakeAddr(10, 0, 0, 2), core.NewMapDemux(), 8)
	f.conn = f.connect(t, f.client)
	for k, cl := range f.set.claims {
		f.key, f.home, f.other = k, cl.owner, 1-cl.owner
	}
	return f
}

// connect completes a handshake from client's fixed local port, so a
// second client stack at the same address reuses the 4-tuple.
func (f oneConn) connect(t *testing.T, client *engine.Stack) *engine.Conn {
	t.Helper()
	conn, err := client.Connect(f.set.Addr(), oneConnPort, 40000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Pump(client, f.set); err != nil {
		t.Fatal(err)
	}
	if conn.State() != core.StateEstablished {
		t.Fatalf("handshake did not complete: %v", conn.State())
	}
	return conn
}

// expectEcho sends one payload and requires the handler's response.
func (f oneConn) expectEcho(t *testing.T, client *engine.Stack, conn *engine.Conn) {
	t.Helper()
	if err := conn.Send([]byte("zz")); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Pump(client, f.set); err != nil {
		t.Fatal(err)
	}
	if got := conn.Receive(); !bytes.Equal(got, []byte("ok<zz>")) {
		t.Fatalf("post-episode response %q", got)
	}
}

// expectOneStale requires that draining shard to's handoff queues adopts
// nothing and counts exactly one stale handoff — in the Stats view and,
// identically, on the registry the set is homed on.
func (f oneConn) expectOneStale(t *testing.T, to int) {
	t.Helper()
	before := f.set.Stats().StaleHandoffs
	if n := f.set.adoptPending(to); n != 0 {
		t.Fatalf("adopted %d stale handoffs", n)
	}
	got := f.set.Stats().StaleHandoffs
	if got != before+1 {
		t.Fatalf("StaleHandoffs = %d, want %d", got, before+1)
	}
	if m := counterValue(t, f.reg, "shard_stale_handoffs_total"); m != got {
		t.Fatalf("shard_stale_handoffs_total = %d, Stats().StaleHandoffs = %d", m, got)
	}
}

// launch extracts the connection from shard from and pushes it onto the
// from->to handoff queue under a freshly stamped claim naming to.
func (f oneConn) launch(t *testing.T, from, to int) *core.PCB {
	t.Helper()
	pcb, ok := f.set.Shard(from).Extract(f.key)
	if !ok {
		t.Fatal("extract failed")
	}
	if !f.set.handoff[from][to].push(Handoff{PCB: pcb, Gen: f.set.stamp(f.key, to)}) {
		t.Fatal("handoff queue refused the push")
	}
	return pcb
}

// TestStaleGenerationHandoffDropped pins the generation check on the
// adopt side: a handoff overtaken in flight by a later move of the same
// connection carries a stale generation and must be discarded — counted,
// not adopted — because whoever stamped the newer generation owns the
// PCB now.
func TestStaleGenerationHandoffDropped(t *testing.T) {
	f := establishOne(t)

	// Launch a handoff toward the other shard, then overtake it: a
	// second stamp brings the connection home before the message is
	// adopted.
	pcb := f.launch(t, f.home, f.other)
	f.set.stamp(f.key, f.home)
	f.expectOneStale(t, f.other)

	// The overtaking mover owns the PCB: land it home and prove the
	// connection survived the whole episode.
	if err := f.set.Shard(f.home).Adopt(pcb); err != nil {
		t.Fatal(err)
	}
	checkOwnership(t, f.set)
	f.expectEcho(t, f.client, f.conn)
}

// TestStaleHandoffAcrossReaccept covers the case a per-connection
// generation could not: a handoff launched before Release, with the same
// 4-tuple re-accepted on the handoff's own destination before the
// message is adopted. Key and owner both match the new claim; only the
// set-wide generation tells the incarnations apart, and the old PCB must
// be dropped and counted, not adopted.
func TestStaleHandoffAcrossReaccept(t *testing.T) {
	f := establishOne(t)

	// Move the connection to the other shard, so that a handoff back
	// home aims at the shard the tuple's SYN steers to.
	f.launch(t, f.home, f.other)
	if n := f.set.adoptPending(f.other); n != 1 {
		t.Fatalf("adopted %d handoffs, want 1", n)
	}
	checkOwnership(t, f.set)
	f.launch(t, f.other, f.home)

	// The session ends and the same tuple connects again before the
	// handoff lands.
	f.set.Release(f.key)
	client2 := engine.NewStack(wire.MakeAddr(10, 0, 0, 2), core.NewMapDemux(), 9)
	conn2 := f.connect(t, client2)
	again := f.set.claims[f.key]
	if again.owner != f.home {
		t.Fatalf("re-accept landed on shard %d, want the handoff's destination %d", again.owner, f.home)
	}

	f.expectOneStale(t, f.home)
	checkOwnership(t, f.set)
	f.expectEcho(t, client2, conn2)
}
