package shard

import (
	"bytes"
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/engine"
	"tcpdemux/internal/frag"
	"tcpdemux/internal/hashfn"
	"tcpdemux/internal/telemetry"
	"tcpdemux/internal/wire"
)

// newSet builds an n-shard StackSet at the conformance address, each
// shard demultiplexing with its own Sequent hash table.
func newSet(t *testing.T, n int, seed uint64) *StackSet {
	t.Helper()
	set, err := NewStackSet(wire.MakeAddr(10, 0, 0, 1), Config{
		Shards: n,
		NewDemuxer: func(int) core.Demuxer {
			return core.NewSequentHash(0, hashfn.Multiplicative{})
		},
		Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// lossyCfg is the conformance operating point from the issue: 20% drop,
// 10% duplication, jitter reordering, timers sized so the exchange
// completes well inside the virtual-time budget.
func lossyCfg(server engine.LossyServer) engine.LossyConfig {
	return engine.LossyConfig{
		Clients: 8,
		Txns:    12,
		Seed:    99,
		Link: engine.LinkConfig{
			Seed:     1234,
			DropRate: 0.20,
			DupRate:  0.10,
			Latency:  0.01,
			Jitter:   0.004,
		},
		RTO:            0.25,
		MaxRetries:     40,
		MSL:            0.5,
		MaxVirtualTime: 2000,
		Server:         server,
	}
}

// TestSetLifecycleCountersCountOnce: after SetTelemetry every shard's
// bundle resolves to the same registry counters, so the set's view must
// read them once, not once per shard. The lossy exchange is virtual-time
// deterministic, so the same run on private per-shard registries (where
// summing the shards is exact) gives the reference totals.
func TestSetLifecycleCountersCountOnce(t *testing.T) {
	private := newSet(t, 4, 77)
	if res, err := engine.RunLossyExchange(nil, lossyCfg(private)); err != nil || !res.Completed {
		t.Fatalf("reference exchange: completed=%v err=%v", res.Completed, err)
	}
	wantRtx, wantAborts, wantSynExp, wantTW := private.LifecycleCounters()
	if wantRtx == 0 {
		t.Fatal("counters inert: no retransmit at 20% drop")
	}

	reg := telemetry.NewRegistry()
	shared := newSet(t, 4, 77)
	shared.SetTelemetry(reg)
	if res, err := engine.RunLossyExchange(nil, lossyCfg(shared)); err != nil || !res.Completed {
		t.Fatalf("shared-registry exchange: completed=%v err=%v", res.Completed, err)
	}
	rtx, aborts, synExp, tw := shared.LifecycleCounters()
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"engine_timer_retransmits_total", rtx, wantRtx},
		{"engine_timer_aborts_total", aborts, wantAborts},
		{"engine_timer_syn_expired_total", synExp, wantSynExp},
		{"engine_timer_time_wait_expired_total", tw, wantTW},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d through the set's view, %d summed over private registries", c.name, c.got, c.want)
		}
		if v := counterValue(t, reg, c.name); v != c.got {
			t.Errorf("%s = %d in the registry, %d through the set's view", c.name, v, c.got)
		}
	}
}

// TestStackSetFragmentsSteerAfterReassembly checks the software
// re-steer: a datagram split into fragments must demultiplex on the
// connection's home shard, because the set reassembles before steering.
func TestStackSetFragmentsSteerAfterReassembly(t *testing.T) {
	const port = uint16(1521)
	set := newSet(t, 4, 21)
	if err := set.Listen(port, func(_ *engine.Conn, p []byte) []byte {
		return append([]byte("got:"), p...)
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

	// Send a data segment, then fragment the frame on its way in.
	payload := bytes.Repeat([]byte("x"), 64)
	if err := conn.Send(payload); err != nil {
		t.Fatal(err)
	}
	frames := client.Drain()
	if len(frames) != 1 {
		t.Fatalf("expected 1 data frame, got %d", len(frames))
	}
	frags, err := frag.Fragment(frames[0], 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) < 2 {
		t.Fatalf("fragmentation produced %d pieces", len(frags))
	}
	for _, f := range frags {
		if _, err := set.Deliver(f); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := engine.Pump(client, set); err != nil {
		t.Fatal(err)
	}
	if got := conn.Receive(); !bytes.Equal(got, append([]byte("got:"), payload...)) {
		t.Fatalf("fragmented request response %q", got)
	}
}

// TestOrphanFragmentsExpireUnderOrdinaryTraffic is the regression test
// for the set-level reassembly timer. 64 first-fragments whose datagrams
// never complete fill the reassembler; the timer must expire them on the
// count of ordinary frames, so that a fragmented datagram arriving later
// is still reassembled and steered by its tuple. With a clock that ticks
// only on fragments the orphans stay, the table stays full, and every
// later fragment falls through to shard 0 as undecodable.
func TestOrphanFragmentsExpireUnderOrdinaryTraffic(t *testing.T) {
	const port = uint16(1521)
	set := newSet(t, 4, 21)
	if err := set.Listen(port, func(_ *engine.Conn, p []byte) []byte {
		return append([]byte("got:"), p...)
	}); err != nil {
		t.Fatal(err)
	}
	clientAddr := wire.MakeAddr(10, 0, 0, 2)
	client := engine.NewStack(clientAddr, core.NewMapDemux(), 9)
	// A connection whose tuple steers away from shard 0, where the
	// fall-through would otherwise hide.
	var conn *engine.Conn
	home := 0
	for lport := uint16(40000); home == 0; lport++ {
		home = set.Steering().Shard(core.Key{
			LocalAddr: set.Addr(), LocalPort: port,
			RemoteAddr: clientAddr, RemotePort: lport,
		}.Tuple())
		if home != 0 {
			var err error
			if conn, err = client.Connect(set.Addr(), port, lport, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := engine.Pump(client, set); err != nil {
		t.Fatal(err)
	}
	if conn.State() != core.StateEstablished {
		t.Fatalf("handshake did not complete: %v", conn.State())
	}

	for i := 0; i < 64; i++ {
		whole, err := wire.BuildSegment(
			wire.IPv4Header{TTL: 64, ID: uint16(i + 1), Src: wire.MakeAddr(198, 51, 100, 7), Dst: set.Addr()},
			wire.TCPHeader{SrcPort: 2048, DstPort: port, Seq: 1, Flags: wire.FlagACK},
			bytes.Repeat([]byte("o"), 64))
		if err != nil {
			t.Fatal(err)
		}
		frags, err := frag.Fragment(whole, 40)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := set.Deliver(frags[0]); err != nil {
			t.Fatal(err)
		}
	}
	if n := set.reasm.Pending(); n != 64 {
		t.Fatalf("%d orphans pending, want a full table of 64", n)
	}

	// Ordinary traffic: stray ACKs for a port nobody listens on.
	stray, err := wire.BuildSegment(
		wire.IPv4Header{TTL: 64, Src: clientAddr, Dst: set.Addr()},
		wire.TCPHeader{SrcPort: 2049, DstPort: 9, Seq: 1, Ack: 1, Flags: wire.FlagACK},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5200; i++ {
		if _, err := set.Deliver(stray); err != nil {
			t.Fatal(err)
		}
		set.Drain() // discard the RSTs
	}
	if set.reasm.Expired != 64 || set.reasm.Pending() != 0 {
		t.Fatalf("after 5200 ordinary frames: expired=%d pending=%d, want 64 and 0",
			set.reasm.Expired, set.reasm.Pending())
	}

	payload := bytes.Repeat([]byte("x"), 64)
	if err := conn.Send(payload); err != nil {
		t.Fatal(err)
	}
	frames := client.Drain()
	if len(frames) != 1 {
		t.Fatalf("expected 1 data frame, got %d", len(frames))
	}
	frags, err := frag.Fragment(frames[0], 40)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]uint64(nil), set.Steered...)
	for _, f := range frags {
		set.Deliver(f) // a full table reports ErrTableFull through shard 0
	}
	if got := set.Steered[home] - before[home]; got != 1 {
		t.Fatalf("rebuilt datagram steered %d frames to its home shard %d, want 1", got, home)
	}
	if got := set.Steered[0] - before[0]; got != 0 {
		t.Fatalf("%d of %d fragments fell through to shard 0", got, len(frags))
	}
	if _, err := engine.Pump(client, set); err != nil {
		t.Fatal(err)
	}
	if got := conn.Receive(); !bytes.Equal(got, append([]byte("got:"), payload...)) {
		t.Fatalf("fragmented request response %q", got)
	}
}
