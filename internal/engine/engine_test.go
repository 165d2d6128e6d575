package engine

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"tcpdemux/internal/core"
	"tcpdemux/internal/frag"
	"tcpdemux/internal/wire"
)

var (
	serverAddr = wire.MakeAddr(10, 0, 0, 1)
	clientAddr = wire.MakeAddr(10, 0, 0, 2)
)

// pair builds a connected server/client stack pair with the given server
// demuxer; the client uses a plain map demuxer.
func pair(t *testing.T, serverDemux core.Demuxer) (*Stack, *Stack) {
	t.Helper()
	server := NewStack(serverAddr, serverDemux, 1)
	client := NewStack(clientAddr, core.NewMapDemux(), 2)
	return server, client
}

// echoUpper is a server handler returning the payload uppercased (ASCII).
func echoUpper(_ *Conn, payload []byte) []byte {
	out := make([]byte, len(payload))
	for i, b := range payload {
		if 'a' <= b && b <= 'z' {
			b -= 32
		}
		out[i] = b
	}
	return out
}

func TestHandshakeAndEcho(t *testing.T) {
	server, client := pair(t, core.NewBSDList())
	if err := server.Listen(1521, echoUpper); err != nil {
		t.Fatal(err)
	}
	var accepted *Conn
	server.OnAccept = func(c *Conn) { accepted = c }

	conn, err := client.Connect(serverAddr, 1521, 40000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	if conn.State() != core.StateEstablished {
		t.Fatalf("client state = %v", conn.State())
	}
	if accepted == nil || accepted.State() != core.StateEstablished {
		t.Fatalf("server accept missing or wrong state: %v", accepted)
	}

	if err := conn.Send([]byte("hello world")); err != nil {
		t.Fatal(err)
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	if got := newestRx(conn); !bytes.Equal(got, []byte("HELLO WORLD")) {
		t.Fatalf("echo response = %q", got)
	}
	// Demultiplexer on the server saw the SYN (listener), the handshake
	// ACK, and the data segment.
	if server.Demuxer().Stats().Lookups < 3 {
		t.Fatalf("server lookups = %d", server.Demuxer().Stats().Lookups)
	}
}

func TestHandshakeAcrossAllAlgorithms(t *testing.T) {
	for _, name := range core.Algorithms() {
		name := name
		t.Run(name, func(t *testing.T) {
			d, err := core.New(name, core.Config{Chains: 19})
			if err != nil {
				t.Fatal(err)
			}
			server, client := pair(t, d)
			if err := server.Listen(80, echoUpper); err != nil {
				t.Fatal(err)
			}
			conn, err := client.Connect(serverAddr, 80, 41000, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Pump(client, server); err != nil {
				t.Fatal(err)
			}
			if err := conn.Send([]byte("abc")); err != nil {
				t.Fatal(err)
			}
			if _, err := Pump(client, server); err != nil {
				t.Fatal(err)
			}
			if got := newestRx(conn); !bytes.Equal(got, []byte("ABC")) {
				t.Fatalf("response %q", got)
			}
		})
	}
}

func TestManyConcurrentConnections(t *testing.T) {
	d := core.NewSequentHash(19, nil)
	server, client := pair(t, d)
	if err := server.Listen(1521, echoUpper); err != nil {
		t.Fatal(err)
	}
	const n = 100
	conns := make([]*Conn, n)
	for i := range conns {
		c, err := client.Connect(serverAddr, 1521, uint16(42000+i), nil)
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	// n connection PCBs + 1 listener on the server.
	if got := server.Demuxer().Len(); got != n+1 {
		t.Fatalf("server PCB count = %d, want %d", got, n+1)
	}
	for i, c := range conns {
		if c.State() != core.StateEstablished {
			t.Fatalf("conn %d state %v", i, c.State())
		}
		msg := []byte{byte('a' + i%26)}
		if err := c.Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	for i, c := range conns {
		want := byte('A' + i%26)
		if got := newestRx(c); len(got) != 1 || got[0] != want {
			t.Fatalf("conn %d echoed %q", i, got)
		}
	}
}

func TestConnectionRefusedRST(t *testing.T) {
	server, client := pair(t, core.NewMapDemux())
	// No listener registered.
	conn, err := client.Connect(serverAddr, 9999, 40000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	if conn.State() != core.StateClosed {
		t.Fatalf("refused connection state = %v", conn.State())
	}
	if client.Demuxer().Len() != 0 {
		t.Fatal("client PCB not torn down after RST")
	}
}

func TestClose(t *testing.T) {
	server, client := pair(t, core.NewBSDList())
	if err := server.Listen(80, echoUpper); err != nil {
		t.Fatal(err)
	}
	conn, err := client.Connect(serverAddr, 80, 40000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	serverPCBs := server.Demuxer().Len()
	clientPCBs := client.Demuxer().Len()
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	// Active closer lands in TIME_WAIT; its PCB lingers in the demuxer.
	if conn.State() != core.StateTimeWait {
		t.Fatalf("state after close = %v", conn.State())
	}
	if err := conn.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
	if got := server.Demuxer().Len(); got != serverPCBs-1 {
		t.Fatalf("server PCBs after close = %d, want %d", got, serverPCBs-1)
	}
	if got := client.Demuxer().Len(); got != clientPCBs {
		t.Fatalf("client PCB reaped early: %d, want %d", got, clientPCBs)
	}
	// The 2MSL timer fires.
	if n := client.TimeWaitCount(); n != 1 {
		t.Fatalf("TIME_WAIT count = %d", n)
	}
	if n := client.ReapTimeWait(); n != 1 {
		t.Fatalf("reaped %d", n)
	}
	if conn.State() != core.StateClosed {
		t.Fatalf("state after reap = %v", conn.State())
	}
	if got := client.Demuxer().Len(); got != clientPCBs-1 {
		t.Fatalf("client PCBs after reap = %d", got)
	}
}

func TestCloseManyThenReap(t *testing.T) {
	server, client := pair(t, core.NewSequentHash(19, nil))
	if err := server.Listen(80, echoUpper); err != nil {
		t.Fatal(err)
	}
	const n = 40
	conns := make([]*Conn, n)
	for i := range conns {
		c, err := client.Connect(serverAddr, 80, uint16(45000+i), nil)
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	for _, c := range conns {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	if got := client.TimeWaitCount(); got != n {
		t.Fatalf("TIME_WAIT population = %d, want %d", got, n)
	}
	// Server side fully closed: only the listener remains.
	if got := server.Demuxer().Len(); got != 1 {
		t.Fatalf("server PCBs = %d, want 1", got)
	}
	if reaped := client.ReapTimeWait(); reaped != n {
		t.Fatalf("reaped %d", reaped)
	}
	if got := client.Demuxer().Len(); got != 0 {
		t.Fatalf("client PCBs after reap = %d", got)
	}
}

func TestListenPortInUse(t *testing.T) {
	server := NewStack(serverAddr, core.NewMapDemux(), 1)
	if err := server.Listen(80, nil); err != nil {
		t.Fatal(err)
	}
	if err := server.Listen(80, nil); !errors.Is(err, ErrPortInUse) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeliverWrongDestination(t *testing.T) {
	server, client := pair(t, core.NewMapDemux())
	if _, err := client.Connect(wire.MakeAddr(9, 9, 9, 9), 80, 40000, nil); err != nil {
		t.Fatal(err)
	}
	frames := client.Drain()
	if len(frames) != 1 {
		t.Fatalf("expected 1 SYN, got %d", len(frames))
	}
	if _, err := server.Deliver(frames[0]); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeliverGarbage(t *testing.T) {
	server := NewStack(serverAddr, core.NewMapDemux(), 1)
	if _, err := server.Deliver([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage frame accepted")
	}
}

func TestAckClassification(t *testing.T) {
	// The demuxer must see DirAck for the pure handshake ACK: verify
	// through SRCache's direction-sensitive probe accounting by checking
	// the data path works end to end (behavioral, not structural).
	d := core.NewSRCache()
	server, client := pair(t, d)
	if err := server.Listen(80, echoUpper); err != nil {
		t.Fatal(err)
	}
	conn, err := client.Connect(serverAddr, 80, 40001, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Hits == 0 {
		t.Fatalf("SR caches never hit during handshake+data: %v", st)
	}
}

// TestConnBudget pins what a resident connection costs the engine: one
// Conn, its PCB included, inside the allocator's 64-byte size class, one
// cache line. The retransmission and lifecycle state a connection needs
// only while something is outstanding lives in a txState of the same
// class, held by pointer (TestTxStateLifecycle).
func TestConnBudget(t *testing.T) {
	if s := unsafe.Sizeof(Conn{}); s > 64 {
		t.Fatalf("Conn is %d bytes, want <= 64", s)
	}
	if s := unsafe.Sizeof(txState{}); s > 64 {
		t.Fatalf("txState is %d bytes, want <= 64", s)
	}
}

// newestRx drains c's receive queue and returns the last payload on it,
// nil if it was empty.
func newestRx(c *Conn) []byte {
	var last []byte
	for p := c.Receive(); p != nil; p = c.Receive() {
		last = p
	}
	return last
}

// TestReceiveQueue: a payload has one consumer. The server connection has
// a handler, so it sees every payload and queues none; the client has no
// handler, so the responses queue for Receive.
func TestReceiveQueue(t *testing.T) {
	server, client := pair(t, core.NewBSDList())
	var seen []string
	if err := server.Listen(80, func(c *Conn, p []byte) []byte {
		seen = append(seen, string(p))
		return echoUpper(c, p)
	}); err != nil {
		t.Fatal(err)
	}
	var accepted *Conn
	server.OnAccept = func(c *Conn) { accepted = c }
	conn, err := client.Connect(serverAddr, 80, 40000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	for _, msg := range []string{"one", "two", "three"} {
		if err := conn.Send([]byte(msg)); err != nil {
			t.Fatal(err)
		}
		if _, err := Pump(client, server); err != nil {
			t.Fatal(err)
		}
	}
	if got := strings.Join(seen, ","); got != "one,two,three" {
		t.Fatalf("handler saw %q", got)
	}
	if n := accepted.Pending(); n != 0 {
		t.Fatalf("connection with a handler queued %d payloads", n)
	}
	if n := conn.Pending(); n != 3 {
		t.Fatalf("pending = %d", n)
	}
	for _, want := range []string{"ONE", "TWO", "THREE"} {
		if got := string(conn.Receive()); got != want {
			t.Fatalf("Receive = %q, want %q", got, want)
		}
	}
	if conn.Receive() != nil {
		t.Fatal("empty queue returned data")
	}
	if conn.Pending() != 0 {
		t.Fatal("pending after drain")
	}
}

func TestReceiveQueueBounded(t *testing.T) {
	server, client := pair(t, core.NewMapDemux())
	if err := server.Listen(80, nil); err != nil { // no handler: no responses
		t.Fatal(err)
	}
	var accepted *Conn
	server.OnAccept = func(c *Conn) { accepted = c }
	conn, err := client.Connect(serverAddr, 80, 40000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rxQueueMax+50; i++ {
		if err := conn.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	if accepted == nil {
		t.Fatal("no accept")
	}
	if n := accepted.Pending(); n != rxQueueMax {
		t.Fatalf("queue grew to %d, cap is %d", n, rxQueueMax)
	}
	// The oldest 50 were dropped: the head is payload 50.
	if got := accepted.Receive(); len(got) != 1 || got[0] != 50 {
		t.Fatalf("head after overflow = %v", got)
	}
}

// TestReceiveQueueReleasesPayloads: a payload the queue gave up, popped by
// Receive or dropped by the rxQueueMax trim, is garbage at once. The queue
// clears its slot, so the array it shares with the waiting payloads does
// not keep it reachable.
func TestReceiveQueueReleasesPayloads(t *testing.T) {
	server, client := pair(t, core.NewMapDemux())
	if err := server.Listen(80, nil); err != nil {
		t.Fatal(err)
	}
	var accepted *Conn
	server.OnAccept = func(c *Conn) { accepted = c }
	conn, err := client.Connect(serverAddr, 80, 40000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	send := func(n int) {
		for i := 0; i < n; i++ {
			// 64 bytes: a payload of its own, outside the tiny allocator.
			if err := conn.Send(bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := Pump(client, server); err != nil {
			t.Fatal(err)
		}
	}
	send(rxQueueMax)
	released := func(p []byte) <-chan struct{} {
		done := make(chan struct{})
		runtime.SetFinalizer(&p[0], func(*byte) { close(done) })
		return done
	}
	trimmed := released(accepted.rx.q[0])
	send(1) // the queue is full: the oldest payload goes
	popped := released(accepted.Receive())
	for name, done := range map[string]<-chan struct{}{"trimmed": trimmed, "popped": popped} {
		collected := false
		for i := 0; i < 20 && !collected; i++ {
			runtime.GC()
			select {
			case <-done:
				collected = true
			case <-time.After(10 * time.Millisecond):
			}
		}
		if !collected {
			t.Errorf("the %s payload is still reachable", name)
		}
	}
	if n := accepted.Pending(); n != rxQueueMax-1 {
		t.Fatalf("pending = %d, want %d", n, rxQueueMax-1)
	}
}

// TestNetstat: Stack.PCBs lists every PCB, the listener first, then the
// connections by remote endpoint.
func TestNetstat(t *testing.T) {
	server, client := pair(t, core.NewSequentHash(19, nil))
	if err := server.Listen(1521, echoUpper); err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := client.Connect(serverAddr, 1521, uint16(30000+i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	// PCBs' order fixes the order StackSet.resettle moves connections in.
	rows := server.PCBs()
	if len(rows) != n+1 {
		t.Fatalf("PCBs = %d, want %d", len(rows), n+1)
	}
	// Sorted: the listener (wildcard remote port 0) first, then the
	// connections by remote port.
	if rows[0].State != core.StateListen {
		t.Fatalf("first PCB = %v %v", rows[0].Key, rows[0].State)
	}
	for i := 1; i <= n; i++ {
		if rows[i].State != core.StateEstablished {
			t.Fatalf("PCB %d state = %v", i, rows[i].State)
		}
		if rows[i].Key.RemotePort != uint16(30000+i-1) {
			t.Fatalf("PCB %d out of order: %v", i, rows[i].Key)
		}
	}
}

func TestWalkEarlyStop(t *testing.T) {
	d := core.NewBSDList()
	for i := 0; i < 10; i++ {
		if err := d.Insert(core.NewPCB(core.Key{
			LocalAddr: serverAddr, LocalPort: 80,
			RemoteAddr: clientAddr, RemotePort: uint16(1000 + i),
		})); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	d.Walk(func(*core.PCB) bool {
		seen++
		return seen < 3
	})
	if seen != 3 {
		t.Fatalf("walk visited %d, want 3", seen)
	}
}

// TestFragmentedDataReassembled sends one oversized data segment as IP
// fragments; the stack must reassemble and deliver it like any other.
func TestFragmentedDataReassembled(t *testing.T) {
	server, client := pair(t, core.NewSequentHash(19, nil))
	if err := server.Listen(80, echoUpper); err != nil {
		t.Fatal(err)
	}
	conn, err := client.Connect(serverAddr, 80, 40000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("abcdefgh"), 400) // 3200 bytes
	if err := conn.Send(big); err != nil {
		t.Fatal(err)
	}
	frames := client.Drain()
	if len(frames) != 1 {
		t.Fatalf("expected one frame, got %d", len(frames))
	}
	frags, err := frag.Fragment(frames[0], 576)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) < 5 {
		t.Fatalf("only %d fragments", len(frags))
	}
	for i, f := range frags {
		r, err := server.Deliver(f)
		if err != nil {
			t.Fatalf("fragment %d: %v", i, err)
		}
		// Only the completing fragment triggers a lookup.
		if i < len(frags)-1 && r.PCB != nil {
			t.Fatalf("fragment %d resolved a PCB early", i)
		}
	}
	// The echo comes back to the client (unfragmented: in-memory wire).
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	want := bytes.ToUpper(big)
	if got := newestRx(conn); !bytes.Equal(got, want) {
		t.Fatalf("echo of fragmented send: %d bytes, want %d", len(got), len(want))
	}
}

func TestConnectEphemeral(t *testing.T) {
	server, client := pair(t, core.NewMapDemux())
	if err := server.Listen(80, echoUpper); err != nil {
		t.Fatal(err)
	}
	const n = 50
	seen := map[uint16]bool{}
	conns := make([]*Conn, n)
	for i := range conns {
		c, err := client.ConnectEphemeral(serverAddr, 80, nil)
		if err != nil {
			t.Fatal(err)
		}
		port := c.Key().LocalPort
		if port < ephemeralLo {
			t.Fatalf("port %d below dynamic range", port)
		}
		if seen[port] {
			t.Fatalf("port %d allocated twice", port)
		}
		seen[port] = true
		conns[i] = c
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	for i, c := range conns {
		if c.State() != core.StateEstablished {
			t.Fatalf("conn %d: %v", i, c.State())
		}
	}
	// Closing and reaping releases ports back to the pool.
	for _, c := range conns {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	client.ReapTimeWait()
	c, err := client.ConnectEphemeral(serverAddr, 80, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Key().LocalPort < ephemeralLo {
		t.Fatal("post-reap allocation broken")
	}
}

// TestStaleFragmentsReaped drives the frame-count reassembly clock far
// enough that an abandoned partial datagram is expired rather than held
// forever.
func TestStaleFragmentsReaped(t *testing.T) {
	server, client := pair(t, core.NewMapDemux())
	if err := server.Listen(80, echoUpper); err != nil {
		t.Fatal(err)
	}
	conn, err := client.Connect(serverAddr, 80, 40000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	// Send a large segment, deliver only its first fragment.
	if err := conn.Send(bytes.Repeat([]byte("z"), 3000)); err != nil {
		t.Fatal(err)
	}
	frames := client.Drain()
	frags, err := frag.Fragment(frames[0], 576)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Deliver(frags[0]); err != nil {
		t.Fatal(err)
	}
	// Resync the client (its retransmission will complete the stream
	// later); for now flood > 4096+512 unrelated frames to advance the
	// reassembly clock past the TTL.
	keepalive, err := wire.BuildSegment(
		wire.IPv4Header{TTL: 64, Src: clientAddr, Dst: serverAddr},
		wire.TCPHeader{SrcPort: 40000, DstPort: 80,
			Seq: conn.pcb.SndNxt, Ack: conn.pcb.RcvNxt, Flags: wire.FlagACK},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5200; i++ {
		if _, err := server.Deliver(keepalive); err != nil {
			t.Fatal(err)
		}
	}
	server.Drain()
	// The stale partial must be gone; a retransmitted whole segment
	// completes the exchange.
	if server.reasm.Pending() != 0 {
		t.Fatalf("stale partial datagram survived: %d pending", server.reasm.Pending())
	}
	if n := client.Retransmit(); n != 1 {
		t.Fatalf("retransmit queued %d", n)
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	if got := newestRx(conn); len(got) != 3000 {
		t.Fatalf("echo length %d after reap+retransmit", len(got))
	}
}
