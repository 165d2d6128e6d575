package engine

import (
	"bytes"
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/wire"
)

// establishVia opens a client connection through srv and completes the
// handshake plus one echo transaction, returning the client conn and the
// server-side key.
func establishVia(t *testing.T, client, srv *Stack, port uint16) (*Conn, core.Key) {
	t.Helper()
	conn, err := client.ConnectEphemeral(srv.Addr(), port, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Pump(client, srv); err != nil {
		t.Fatal(err)
	}
	if conn.State() != core.StateEstablished {
		t.Fatalf("client state %v after pump", conn.State())
	}
	return conn, core.Key{
		LocalAddr: srv.Addr(), LocalPort: port,
		RemoteAddr: client.Addr(), RemotePort: conn.Key().LocalPort,
	}
}

// pcbOf finds the PCB under k in s's table by a Walk, nil if there is none.
func pcbOf(s *Stack, k core.Key) *core.PCB {
	var pcb *core.PCB
	s.Demuxer().Walk(func(p *core.PCB) bool {
		if p.Key == k {
			pcb = p
		}
		return pcb == nil
	})
	return pcb
}

// TestExtractAdoptMovesLiveConnection migrates an established connection
// from one stack to another mid-exchange and checks the conversation
// continues seamlessly on the new home.
func TestExtractAdoptMovesLiveConnection(t *testing.T) {
	addr := wire.MakeAddr(10, 0, 0, 9)
	s1 := NewStack(addr, core.NewMapDemux(), 1)
	s2 := NewStack(addr, core.NewMapDemux(), 2)
	client := NewStack(wire.MakeAddr(10, 0, 0, 10), core.NewMapDemux(), 3)
	echo := func(_ *Conn, p []byte) []byte { return append([]byte("r:"), p...) }
	for _, s := range []*Stack{s1, s2} {
		if err := s.Listen(80, echo); err != nil {
			t.Fatal(err)
		}
	}

	conn, skey := establishVia(t, client, s1, 80)
	if err := conn.Send([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, err := Pump(client, s1); err != nil {
		t.Fatal(err)
	}
	if got := conn.Receive(); !bytes.Equal(got, []byte("r:one")) {
		t.Fatalf("pre-migration response %q", got)
	}

	// Control-plane sanity: a listener, a PCB no Stack made and another
	// stack's connection don't extract.
	if s1.Extract(pcbOf(s1, core.ListenKey(addr, 80))) {
		t.Fatal("extracted a listener")
	}
	if s1.Extract(core.NewPCB(core.Key{LocalAddr: addr, LocalPort: 81})) {
		t.Fatal("extracted a PCB without a connection")
	}
	pcb := pcbOf(s1, skey)
	if s2.Extract(pcb) {
		t.Fatal("extracted another stack's connection")
	}

	before := s1.Demuxer().Len()
	if !s1.Extract(pcb) {
		t.Fatal("Extract failed for the live connection")
	}
	if s1.Extract(pcb) {
		t.Fatal("extracted the same connection twice")
	}
	if got := s1.Demuxer().Len(); got != before-1 {
		t.Fatalf("old stack demux len %d after extract, want %d", got, before-1)
	}
	if pcb.State != core.StateEstablished {
		t.Fatalf("extracted PCB state %v", pcb.State)
	}
	if err := s2.Adopt(pcb); err != nil {
		t.Fatal(err)
	}
	// A second adoption of the same key must refuse, not corrupt.
	if err := s2.Adopt(pcb); err == nil {
		t.Fatal("duplicate Adopt succeeded")
	}

	// The conversation continues against the new stack only.
	if err := conn.Send([]byte("two")); err != nil {
		t.Fatal(err)
	}
	if _, err := Pump(client, s2); err != nil {
		t.Fatal(err)
	}
	if got := conn.Receive(); !bytes.Equal(got, []byte("r:two")) {
		t.Fatalf("post-migration response %q", got)
	}
	// The old stack no longer knows the connection; a stray frame for it
	// there now draws a reset, which is exactly why the shard engine
	// records every connection living off its steered shard.
	if s1.Demuxer().Len() != 1 {
		t.Fatalf("old stack demux len %d, want 1 (listener only)", s1.Demuxer().Len())
	}
}

// TestAdoptRearmsRetransmission checks that a migrated connection's
// unacknowledged segment is retransmitted by the new stack's timer
// wheel: the frame was lost while homed on the old stack, and the new
// home's clock must recover it.
func TestAdoptRearmsRetransmission(t *testing.T) {
	addr := wire.MakeAddr(10, 0, 0, 11)
	s1 := NewStack(addr, core.NewMapDemux(), 4)
	s2 := NewStack(addr, core.NewMapDemux(), 5)
	client := NewStack(wire.MakeAddr(10, 0, 0, 12), core.NewMapDemux(), 6)
	var srvConn *Conn
	s1.OnAccept = func(c *Conn) { srvConn = c }
	for _, s := range []*Stack{s1, s2} {
		if err := s.Listen(80, nil); err != nil {
			t.Fatal(err)
		}
	}

	conn, skey := establishVia(t, client, s1, 80)
	if srvConn == nil {
		t.Fatal("accept hook never fired")
	}

	// The server pushes data whose frame the wire then loses.
	if err := srvConn.Send([]byte("push")); err != nil {
		t.Fatal(err)
	}
	if frames := s1.Drain(); len(frames) != 1 {
		t.Fatalf("expected the push frame queued, got %d frames", len(frames))
	}

	pcb := pcbOf(s1, skey)
	if !s1.Extract(pcb) {
		t.Fatal("Extract failed")
	}
	if err := s2.Adopt(pcb); err != nil {
		t.Fatal(err)
	}

	// Only the new stack's clock runs; its wheel must own the timer now.
	s1.Tick(10)
	if rtx, _, _, _ := s1.LifecycleCounters(); rtx != 0 {
		t.Fatal("old stack retransmitted a migrated connection's segment")
	}
	s2.Tick(DefaultRTO + 0.1)
	if rtx, _, _, _ := s2.LifecycleCounters(); rtx != 1 {
		t.Fatalf("new stack retransmits = %d, want 1", rtx)
	}
	for _, f := range s2.Drain() {
		if _, err := client.Deliver(f); err != nil {
			t.Fatal(err)
		}
	}
	if got := conn.Receive(); !bytes.Equal(got, []byte("push")) {
		t.Fatalf("recovered payload %q, want \"push\"", got)
	}
}
