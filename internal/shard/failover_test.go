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

// checkOwnership asserts where connections live after a control-plane
// step: every connection PCB is on exactly one shard, that shard can still
// accept work, and away names it exactly when the steering hash alone would
// not find it. The one PCB away may leave out is a connection begun by a SYN
// the rescue fold placed (its steered shard already dead): the same fold
// still finds it, and the next resettle records it. An away entry with no
// PCB behind it (the connection closed) may stay until the next Rekey,
// FailOver or Release, but no entry ever names its key's steered shard, so
// a set that never rekeyed or failed over keeps none.
func checkOwnership(t testing.TB, set *StackSet) {
	var fail string
	holder := make(map[core.Key]int)
	for i, s := range set.shards {
		s.Demuxer().Walk(func(p *core.PCB) bool {
			k := p.Key
			if k.IsWildcard() {
				return true
			}
			home := set.steer.Shard(k.Tuple())
			at, recorded := set.away[k]
			j, dup := holder[k]
			holder[k] = i
			switch {
			case !set.alive(i):
				fail = fmt.Sprintf("PCB %v left on shard %d, which is %v", k, i, set.Health(i))
			case dup:
				fail = fmt.Sprintf("PCB %v is on shard %d and on shard %d", k, j, i)
			case recorded && at != i:
				fail = fmt.Sprintf("PCB %v lives on shard %d but away names shard %d", k, i, at)
			case !recorded && home != i:
				if rescue, _ := set.rescueShard(k.Tuple()); set.alive(home) || rescue != i {
					fail = fmt.Sprintf("PCB %v lives on shard %d, steers to shard %d, and away does not name it", k, i, home)
				}
			}
			return fail == ""
		})
	}
	for k, at := range set.away {
		if at == set.steer.Shard(k.Tuple()) {
			fail = fmt.Sprintf("away names shard %d for %v, which is where the key steers", at, k)
		}
	}
	if fail != "" {
		t.Helper()
		t.Fatalf("%s", fail)
	}
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
