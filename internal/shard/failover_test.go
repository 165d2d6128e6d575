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

// checkOwnership asserts where connections live after a control-plane
// step: every connection PCB is on exactly one shard, that shard can still
// accept work, and away names it exactly when the steering hash alone would
// not find it. The one PCB away may leave out is a connection begun by a SYN
// the rescue fold placed (its steered shard already dead): the same fold
// still finds it, and the next resettle records it. An away entry with no
// PCB behind it (the connection closed) may stay until the next Rekey,
// FailOver or Release, but no entry ever names its key's steered shard, so
// a set that never rekeyed or failed over keeps none.
func checkOwnership(t *testing.T, set *StackSet) {
	t.Helper()
	holder := make(map[core.Key]int)
	for i := 0; i < set.Shards(); i++ {
		for _, ci := range set.Shard(i).Netstat() {
			k := ci.Key
			if k.IsWildcard() {
				continue
			}
			if !set.alive(i) {
				t.Fatalf("PCB %v left on shard %d, which is %v", k, i, set.Health(i))
			}
			if j, dup := holder[k]; dup {
				t.Fatalf("PCB %v is on shard %d and on shard %d", k, j, i)
			}
			holder[k] = i
			home := set.Steering().Shard(k.Tuple())
			at, recorded := set.away[k]
			switch {
			case recorded && at != i:
				t.Fatalf("PCB %v lives on shard %d but away names shard %d", k, i, at)
			case !recorded && home != i:
				if rescue, _ := set.rescueShard(k.Tuple()); set.alive(home) || rescue != i {
					t.Fatalf("PCB %v lives on shard %d, steers to shard %d, and away does not name it", k, i, home)
				}
			}
		}
	}
	for k, at := range set.away {
		if at == set.Steering().Shard(k.Tuple()) {
			t.Fatalf("away names shard %d for %v, which is where the key steers", at, k)
		}
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

// TestInboxBackpressurePreservesOrder pins delivery order across a fault
// transition, where a frame handed straight to the Stack could overtake
// frames an earlier fault left queued. A stalled consumer queues the first
// segments; the fault clears; one more segment arrives and must reach the
// application after everything queued ahead of it. Two backlogs: a partly
// filled one and a full one. Either way the recovered shard drains its
// backlog before it takes the new frame, so nothing is refused, nothing is
// shed and nothing is delivered around the queue. The ledger balances
// after every step.
func TestInboxBackpressurePreservesOrder(t *testing.T) {
	for _, c := range []struct {
		name   string
		queued int
	}{
		{"partly filled backlog", 2},
		{"full backlog", DefaultInboxCap},
	} {
		t.Run(c.name, func(t *testing.T) { backlogThenOne(t, c.queued) })
	}
}

func backlogThenOne(t *testing.T, queued int) {
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
	if set.InboxFullEvents != 0 {
		t.Fatalf("InboxFullEvents = %d: the recovered shard refused a frame", set.InboxFullEvents)
	}
	if shed := set.Stats().ShedInboxFull; shed != 0 {
		t.Fatalf("shed %d frames with a live consumer", shed)
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

// echoPort is where establish listens.
const echoPort = uint16(1521)

// establish listens on echoPort with an "ok<payload>" handler and completes
// n handshakes from one client stack.
func establish(t *testing.T, set *StackSet, n int) (*engine.Stack, []*engine.Conn) {
	t.Helper()
	if err := set.Listen(echoPort, func(_ *engine.Conn, p []byte) []byte {
		return append(append([]byte("ok<"), p...), '>')
	}); err != nil {
		t.Fatal(err)
	}
	set.SetBacklog(n)
	client := engine.NewStack(wire.MakeAddr(10, 0, 0, 2), core.NewMapDemux(), 8)
	conns := make([]*engine.Conn, n)
	for i := range conns {
		c, err := client.ConnectEphemeral(set.Addr(), echoPort, nil)
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
	return client, conns
}

// expectEchoes completes one transaction on every connection.
func expectEchoes(t *testing.T, client *engine.Stack, set *StackSet, conns []*engine.Conn) {
	t.Helper()
	for i, c := range conns {
		if err := c.Send([]byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := engine.Pump(client, set); err != nil {
		t.Fatal(err)
	}
	for i, c := range conns {
		want := []byte{'o', 'k', '<', byte(i), byte(i >> 8), '>'}
		if got := c.Receive(); !bytes.Equal(got, want) {
			t.Fatalf("conn %d: got %q want %q", i, got, want)
		}
	}
}

// serverKey is the key the set knows a client connection by.
func serverKey(c *engine.Conn) core.Key {
	k := c.Key()
	return core.Key{
		LocalAddr: k.RemoteAddr, LocalPort: k.RemotePort,
		RemoteAddr: k.LocalAddr, RemotePort: k.LocalPort,
	}
}

// TestHandoffWedgeRevertsRekey drives the refused migration: a rekey that
// tries to move connections onto a wedged shard must count each as a
// handoff-full shed, put the PCB back, and leave every connection answering
// on its original shard — migration shed, connections never lost.
func TestHandoffWedgeRevertsRekey(t *testing.T) {
	set := newSet(t, 2, 13)
	client, conns := establish(t, set, 8)

	// Wedge shard 1, then rekey until some mover aims at it and
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
	set.SetFaultFunc(nil)

	// Every connection — reverted movers included, despite the steering
	// function now pointing elsewhere — must still answer. The reverted
	// movers are in away, so homeOf is reading the map for these frames, not
	// trusting the hash.
	if len(set.away) == 0 {
		t.Fatal("reverted moves left nothing in away")
	}
	expectEchoes(t, client, set, conns)

	// Releasing the reverted movers one by one empties away, and with the
	// last one gone the fast path is back.
	var keys []core.Key
	for k := range set.away {
		keys = append(keys, k)
	}
	for _, k := range keys {
		set.Release(k)
	}
	if len(set.away) != 0 {
		t.Fatalf("after releasing every mover: %d entries left in away", len(set.away))
	}
}

// TestHealthySetKeepsNoOwnershipRecords: a set that never rekeyed or failed
// over records nothing per connection. Accepting does not write away and
// releasing finds nothing to delete, so homeOf's fast path holds throughout.
func TestHealthySetKeepsNoOwnershipRecords(t *testing.T) {
	set := newSet(t, 4, 17)
	client, conns := establish(t, set, 1000)
	if n := len(set.away); n != 0 {
		t.Fatalf("%d away entries after %d accepts", n, len(conns))
	}
	checkOwnership(t, set)
	expectEchoes(t, client, set, conns)
	for _, c := range conns[:len(conns)/2] {
		set.Release(serverKey(c))
		if n := len(set.away); n != 0 {
			t.Fatalf("%d away entries after a release", n)
		}
	}
	checkOwnership(t, set)
	expectEchoes(t, client, set, conns[len(conns)/2:])
}

// TestRekeyMovesMoreThanAQueueful: a migration is a call, so one rekey
// carries any number of movers toward one shard. More than 256 of them (what
// one handoff queue used to hold) all land, none is shed or left in away,
// and every connection answers from wherever it is now.
func TestRekeyMovesMoreThanAQueueful(t *testing.T) {
	set := newSet(t, 2, 13)
	client, conns := establish(t, set, 1200)
	before := make([]int, len(conns))
	for i, c := range conns {
		before[i] = set.Steering().Shard(serverKey(c).Tuple())
	}
	migrated := set.Rekey()
	checkOwnership(t, set)
	toward := make([]int, set.Shards())
	for i, c := range conns {
		if to := set.Steering().Shard(serverKey(c).Tuple()); to != before[i] {
			toward[to]++
		}
	}
	if toward[0] <= 256 && toward[1] <= 256 {
		t.Fatalf("movers per destination %v: neither exceeds 256", toward)
	}
	if migrated != toward[0]+toward[1] {
		t.Fatalf("Rekey migrated %d, but %v connections changed shard", migrated, toward)
	}
	if shed := set.Stats().ShedHandoffFull; shed != 0 || len(set.away) != 0 {
		t.Fatalf("handoff-full shed = %d, %d away entries; want none of either", shed, len(set.away))
	}
	expectEchoes(t, client, set, conns)
}

// foldOver is the rescue fold's answer for tup over the given live shards
// (in shard order): what rescueShard returns once exactly those are alive.
func foldOver(set *StackSet, tup wire.Tuple, live []int) int {
	return live[hashfn.ChainIndex(set.steer.key.Hash(tup), len(live))]
}

// TestSecondFailoverKeepsEarlierRescues: the rescue fold is over the live
// shards, so a second drain changes its answer for connections the first
// drain placed. Three connections steer to shard a: one established and one
// whose SYN-ACK is still on the wire when a drains, and one that connects
// after, which the fold places. Then a shard b that holds none of them
// drains, with the client ports chosen so that the fold over the two
// survivors names a different shard than the first rescue did. All three
// must still be found: every mover of the first drain, half-open ones
// included, is in away, and the second drain records what the fold placed
// in between.
func TestSecondFailoverKeepsEarlierRescues(t *testing.T) {
	set := newSet(t, 4, 29)
	client, _ := establish(t, set, 0)

	// Pick a, b and three client ports: every tuple steers to a, none is
	// rescued onto b, and the fold moves once b is gone too.
	const a = 0
	var ports []uint16
	b := -1
	for cand := 1; cand < set.Shards() && len(ports) < 3; cand++ {
		b, ports = cand, nil
		var first, second []int
		for i := 0; i < set.Shards(); i++ {
			if i != a {
				first = append(first, i)
				if i != b {
					second = append(second, i)
				}
			}
		}
		for p := uint16(40000); p < 42000 && len(ports) < 3; p++ {
			tup := core.Key{
				LocalAddr: set.Addr(), LocalPort: echoPort,
				RemoteAddr: client.Addr(), RemotePort: p,
			}.Tuple()
			r := foldOver(set, tup, first)
			if set.Steering().Shard(tup) == a && r != b && foldOver(set, tup, second) != r {
				ports = append(ports, p)
			}
		}
	}
	if len(ports) < 3 {
		t.Fatal("no three client ports fit the scenario")
	}

	connect := func(port uint16) *engine.Conn {
		c, err := client.Connect(set.Addr(), echoPort, port, nil)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	established := connect(ports[0])
	if _, err := engine.Pump(client, set); err != nil {
		t.Fatal(err)
	}
	halfOpen := connect(ports[1])
	for _, syn := range client.Drain() {
		if _, err := set.Deliver(syn); err != nil {
			t.Fatal(err)
		}
	}
	synAck := set.Drain() // held back until both drains are done
	if established.State() != core.StateEstablished || halfOpen.State() != core.StateSynSent || len(synAck) != 1 {
		t.Fatalf("setup: established %v, half-open %v, %d frames held", established.State(), halfOpen.State(), len(synAck))
	}

	if n := set.FailOver(a); n != 2 {
		t.Fatalf("first drain rehomed %d connections, want 2", n)
	}
	checkOwnership(t, set)
	placed := connect(ports[2])
	if _, err := engine.Pump(client, set); err != nil {
		t.Fatal(err)
	}
	checkOwnership(t, set)
	if n := set.FailOver(b); n != 0 {
		t.Fatalf("second drain rehomed %d connections off a shard that held none", n)
	}
	checkOwnership(t, set)

	for _, f := range synAck {
		if _, err := client.Deliver(f); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := engine.Pump(client, set); err != nil {
		t.Fatal(err)
	}
	if halfOpen.State() != core.StateEstablished {
		t.Fatalf("half-open connection after two drains: %v", halfOpen.State())
	}
	expectEchoes(t, client, set, []*engine.Conn{established, halfOpen, placed})
	if acc := set.Accounting(); !acc.Balanced() {
		t.Fatalf("unaccounted packet losses: %+v", acc)
	}
}
