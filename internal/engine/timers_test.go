package engine

import (
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/timer"
	"tcpdemux/internal/wire"
)

// TestRetransmitTimerBackoffAndAbort: a SYN into the void must be
// re-queued by the retransmission timer at exponentially backed-off
// intervals and the connection aborted at the retry limit — all driven by
// Tick alone.
func TestRetransmitTimerBackoffAndAbort(t *testing.T) {
	d := core.NewMapDemux()
	client := NewStack(clientAddr, d, 7)
	client.SetTimers(0.1, 3, 0)
	conn, err := client.Connect(serverAddr, 80, 40000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(client.Drain()); n != 1 {
		t.Fatalf("initial SYN: %d frames", n)
	}

	// Backoff doubles each round: fires at 0.1, 0.3, 0.7 re-queue the SYN;
	// the fourth firing (1.5) hits the retry limit and aborts.
	for i, at := range []float64{0.15, 0.35, 0.75} {
		client.Tick(at)
		if n := len(client.Drain()); n != 1 {
			t.Fatalf("tick %d (t=%v): %d frames queued, want 1", i, at, n)
		}
		if conn.State() != core.StateSynSent {
			t.Fatalf("tick %d: state %v", i, conn.State())
		}
	}
	if rtx, _, _, _ := client.LifecycleCounters(); rtx != 3 {
		t.Fatalf("retransmits = %d, want 3", rtx)
	}

	client.Tick(1.0) // between retransmission 3 (0.7) and the abort (1.5)
	if n := len(client.Drain()); n != 0 {
		t.Fatalf("spurious frames between backoff deadlines: %d", n)
	}
	client.Tick(1.6)
	if conn.State() != core.StateClosed {
		t.Fatalf("state after retry limit = %v, want Closed", conn.State())
	}
	if _, aborts, _, _ := client.LifecycleCounters(); aborts != 1 {
		t.Fatalf("aborts = %d, want 1", aborts)
	}
	if d.Len() != 0 {
		t.Fatalf("aborted PCB still in demuxer (len %d)", d.Len())
	}
	if client.PendingTimers() != 0 {
		t.Fatalf("timers leaked after abort: %d", client.PendingTimers())
	}
}

// TestAckQuenchesRetransmitTimer: once the peer acknowledges, ticking far
// past every backoff deadline must produce no retransmissions.
func TestAckQuenchesRetransmitTimer(t *testing.T) {
	server, client, _, clientConn := connect(t)
	if err := clientConn.Send([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	client.Tick(1000)
	server.Tick(1000)
	if n := len(client.Drain()) + len(server.Drain()); n != 0 {
		t.Fatalf("%d frames retransmitted after everything was acked", n)
	}
	cliRtx, _, _, _ := client.LifecycleCounters()
	srvRtx, _, _, _ := server.LifecycleCounters()
	if cliRtx != 0 || srvRtx != 0 {
		t.Fatalf("retransmit counters moved: client=%d server=%d", cliRtx, srvRtx)
	}
}

// TestSynRcvdExpiryRecoversBacklog is the backlog-leak regression test:
// a flood of half-open connections must be reaped by the SYN_RCVD timer,
// releasing every backlog slot so a legitimate client can connect — with
// no manual teardown calls.
func TestSynRcvdExpiryRecoversBacklog(t *testing.T) {
	d := core.NewSequentHash(19, nil)
	server := NewStack(serverAddr, d, 1)
	server.SetBacklog(4)
	server.SetTimers(1000, 0, 0) // keep SYN|ACK retransmissions out of the picture
	if err := server.Listen(1521, echoUpper); err != nil {
		t.Fatal(err)
	}
	const flood = 10
	for i := 0; i < flood; i++ {
		src := wire.MakeAddr(198, 51, 100, byte(i+1))
		if _, err := server.Deliver(synFrom(t, src, uint16(2048+i))); err != nil {
			t.Fatal(err)
		}
		server.Drain() // discard SYN|ACKs to nowhere
	}
	if got := d.Len(); got != 1+4 {
		t.Fatalf("table = %d PCBs, want listener + backlog 4", got)
	}
	if got := server.Stats().SynDrops; got != flood-4 {
		t.Fatalf("SynDrops = %d, want %d", got, flood-4)
	}

	// A legitimate client is shut out while the flood squats the backlog.
	client := NewStack(clientAddr, core.NewMapDemux(), 2)
	conn, err := client.Connect(serverAddr, 1521, 40000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	if conn.State() == core.StateEstablished {
		t.Fatal("connected through a full backlog")
	}

	// The SYN_RCVD give-up timer reaps the abandoned half-opens.
	server.Tick(SynRcvdTimeout + 1)
	if _, _, synExpired, _ := server.LifecycleCounters(); synExpired != 4 {
		t.Fatalf("synExpired = %d, want 4", synExpired)
	}
	if got := d.Len(); got != 1 {
		t.Fatalf("table = %d PCBs after expiry, want just the listener", got)
	}

	// Every slot was released: the client's retransmitted SYN now lands.
	if n := client.Retransmit(); n != 1 {
		t.Fatalf("client retransmit queued %d", n)
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	if conn.State() != core.StateEstablished {
		t.Fatalf("client blocked after backlog recovery: %v", conn.State())
	}
}

// TestTimeWaitAutoExpiry: the 2MSL clock alone must collect a TIME_WAIT
// PCB, with ReapTimeWait never called.
func TestTimeWaitAutoExpiry(t *testing.T) {
	server, client, _, clientConn := connect(t)
	client.SetTimers(0, 0, 1)
	if err := clientConn.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	if clientConn.State() != core.StateTimeWait {
		t.Fatalf("state after close = %v", clientConn.State())
	}
	if client.TimeWaitCount() != 1 {
		t.Fatalf("TimeWaitCount = %d", client.TimeWaitCount())
	}

	client.Tick(1.9) // inside the 2MSL window
	if clientConn.State() != core.StateTimeWait {
		t.Fatalf("left TIME_WAIT early: %v", clientConn.State())
	}
	client.Tick(2.1)
	if clientConn.State() != core.StateClosed {
		t.Fatalf("state after 2MSL = %v, want Closed", clientConn.State())
	}
	if _, _, _, twExpired := client.LifecycleCounters(); twExpired != 1 {
		t.Fatalf("timeWaitExpired = %d", twExpired)
	}
	if client.TimeWaitCount() != 0 {
		t.Fatalf("TimeWaitCount = %d after expiry", client.TimeWaitCount())
	}
	if client.PendingTimers() != 0 {
		t.Fatalf("timers leaked: %d", client.PendingTimers())
	}
}

// TestCloseSynSentTearsDown: closing a connection whose SYN was never
// answered must tear it down directly — no FIN, no FIN_WAIT_1.
func TestCloseSynSentTearsDown(t *testing.T) {
	d := core.NewMapDemux()
	client := NewStack(clientAddr, d, 3)
	conn, err := client.Connect(serverAddr, 80, 40000, nil)
	if err != nil {
		t.Fatal(err)
	}
	client.Drain() // the unanswered SYN
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if conn.State() != core.StateClosed {
		t.Fatalf("state = %v, want Closed", conn.State())
	}
	if d.Len() != 0 {
		t.Fatalf("PCB left in demuxer")
	}
	if n := len(client.Drain()); n != 0 {
		t.Fatalf("close of SYN_SENT queued %d frames, want none", n)
	}
	if client.PendingTimers() != 0 {
		t.Fatalf("timers leaked: %d", client.PendingTimers())
	}
}

// TestCloseSynRcvdReleasesBacklog: closing a half-open server connection
// must free its backlog slot, not walk the FIN states.
func TestCloseSynRcvdReleasesBacklog(t *testing.T) {
	d := core.NewMapDemux()
	server := NewStack(serverAddr, d, 1)
	server.SetBacklog(1)
	if err := server.Listen(80, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		src := wire.MakeAddr(203, 0, 113, byte(i+1))
		if _, err := server.Deliver(synFrom2(t, src, 5000, 80)); err != nil {
			t.Fatal(err)
		}
		server.Drain()
		var half *core.PCB
		d.Walk(func(p *core.PCB) bool {
			if p.State == core.StateSynRcvd {
				half = p
			}
			return true
		})
		if half == nil {
			t.Fatalf("round %d: SYN through a free backlog spawned nothing (leaked slot)", i)
		}
		if err := half.UserData.(*Conn).Close(); err != nil {
			t.Fatalf("round %d: close: %v", i, err)
		}
		if half.State != core.StateClosed {
			t.Fatalf("round %d: state = %v, want Closed", i, half.State)
		}
		if n := len(server.Drain()); n != 0 {
			t.Fatalf("round %d: close of SYN_RCVD queued %d frames", i, n)
		}
	}
}

// synFrom2 is synFrom with an explicit destination port.
func synFrom2(t *testing.T, src wire.Addr, sport, dport uint16) []byte {
	t.Helper()
	frame, err := wire.BuildSegment(
		wire.IPv4Header{TTL: 64, Src: src, Dst: serverAddr},
		wire.TCPHeader{SrcPort: sport, DstPort: dport, Seq: 9, Flags: wire.FlagSYN, Window: 1024},
		nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestSendRSTAckRules checks both reset-generation arms of RFC 793: an
// offending segment with ACK yields Seq=SEG.ACK and no ACK flag; one
// without ACK yields Seq=0, ACK set, Ack=SEG.SEQ+SEG.LEN (with SYN and
// FIN each counting one).
func TestSendRSTAckRules(t *testing.T) {
	server := NewStack(serverAddr, core.NewMapDemux(), 1)

	// ACK-bearing stray segment (no listener, no connection).
	frame, err := wire.BuildSegment(
		wire.IPv4Header{TTL: 64, Src: clientAddr, Dst: serverAddr},
		wire.TCPHeader{SrcPort: 4000, DstPort: 81, Seq: 500, Ack: 7777,
			Flags: wire.FlagACK, Window: 1024},
		[]byte("xyz"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Deliver(frame); err != nil {
		t.Fatal(err)
	}
	out := server.Drain()
	if len(out) != 1 {
		t.Fatalf("ACK stray drew %d replies", len(out))
	}
	rst, err := wire.ParseSegment(out[0])
	if err != nil {
		t.Fatal(err)
	}
	if rst.TCP.Flags != wire.FlagRST {
		t.Fatalf("flags = %s, want bare RST", wire.FlagNames(rst.TCP.Flags))
	}
	if rst.TCP.Seq != 7777 {
		t.Fatalf("RST seq = %d, want the stray's Ack 7777", rst.TCP.Seq)
	}

	// ACK-less segments: SEG.LEN counts payload plus SYN and FIN.
	cases := []struct {
		flags   uint8
		payload []byte
		wantAck uint32
	}{
		{wire.FlagSYN, nil, 501},                           // bare SYN: +1
		{wire.FlagSYN | wire.FlagFIN, []byte("abcd"), 506}, // 4 data +2
	}
	for _, tc := range cases {
		frame, err := wire.BuildSegment(
			wire.IPv4Header{TTL: 64, Src: clientAddr, Dst: serverAddr},
			wire.TCPHeader{SrcPort: 4001, DstPort: 81, Seq: 500,
				Flags: tc.flags, Window: 1024},
			tc.payload,
		)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := server.Deliver(frame); err != nil {
			t.Fatal(err)
		}
		out := server.Drain()
		if len(out) != 1 {
			t.Fatalf("flags %s: %d replies", wire.FlagNames(tc.flags), len(out))
		}
		rst, err := wire.ParseSegment(out[0])
		if err != nil {
			t.Fatal(err)
		}
		if rst.TCP.Flags != wire.FlagRST|wire.FlagACK {
			t.Fatalf("flags %s: reply flags = %s, want RST|ACK",
				wire.FlagNames(tc.flags), wire.FlagNames(rst.TCP.Flags))
		}
		if rst.TCP.Seq != 0 {
			t.Fatalf("flags %s: RST seq = %d, want 0", wire.FlagNames(tc.flags), rst.TCP.Seq)
		}
		if rst.TCP.Ack != tc.wantAck {
			t.Fatalf("flags %s: RST ack = %d, want %d",
				wire.FlagNames(tc.flags), rst.TCP.Ack, tc.wantAck)
		}
	}
}

// rstFor builds the in-window reset c's peer would send.
func rstFor(t *testing.T, c *Conn) []byte {
	t.Helper()
	k := c.Key()
	frame, err := wire.BuildSegment(
		wire.IPv4Header{TTL: 64, Src: k.RemoteAddr, Dst: k.LocalAddr},
		wire.TCPHeader{SrcPort: k.RemotePort, DstPort: k.LocalPort,
			Seq: c.pcb.RcvNxt, Flags: wire.FlagRST, Window: 0},
		nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestRSTTeardownScrubsTimeWaitOnly: an in-window RST tears down a
// FIN_WAIT_1 PCB without touching the TIME_WAIT count, and takes a
// TIME_WAIT PCB off it.
func TestRSTTeardownScrubsTimeWaitOnly(t *testing.T) {
	// RST in FIN_WAIT_1 (FIN sent, nothing pumped).
	_, client, _, clientConn := connect(t)
	if err := clientConn.Close(); err != nil {
		t.Fatal(err)
	}
	if clientConn.State() != core.StateFinWait1 {
		t.Fatalf("state = %v", clientConn.State())
	}
	if _, err := client.Deliver(rstFor(t, clientConn)); err != nil {
		t.Fatal(err)
	}
	if clientConn.State() != core.StateClosed {
		t.Fatalf("state after RST = %v", clientConn.State())
	}
	if client.TimeWaitCount() != 0 {
		t.Fatalf("TimeWaitCount = %d for a never-TIME_WAIT conn", client.TimeWaitCount())
	}

	// RST in TIME_WAIT must also leave the TIME_WAIT count.
	server2, client2, _, clientConn2 := connect(t)
	if err := clientConn2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Pump(client2, server2); err != nil {
		t.Fatal(err)
	}
	if clientConn2.State() != core.StateTimeWait || client2.TimeWaitCount() != 1 {
		t.Fatalf("setup: state %v, timeWait %d", clientConn2.State(), client2.TimeWaitCount())
	}
	if _, err := client2.Deliver(rstFor(t, clientConn2)); err != nil {
		t.Fatal(err)
	}
	if clientConn2.State() != core.StateClosed {
		t.Fatalf("state after RST = %v", clientConn2.State())
	}
	if client2.TimeWaitCount() != 0 {
		t.Fatalf("RST-torn PCB still counted in TIME_WAIT")
	}
}

// TestTimeWaitCountMatchesTable: TimeWaitCount is a counter kept beside
// the table, so every way into and out of TIME_WAIT — the active close, an
// in-window RST, Extract and Adopt, the 2MSL expiry and ReapTimeWait —
// must leave it equal to what a walk of the table finds.
func TestTimeWaitCountMatchesTable(t *testing.T) {
	server, client := pair(t, core.NewSequentHash(19, nil))
	client.SetTimers(0, 0, 1)
	if err := server.Listen(80, nil); err != nil {
		t.Fatal(err)
	}
	check := func(step string, want int) {
		t.Helper()
		for _, s := range []*Stack{client, server} {
			walked := 0
			s.Demuxer().Walk(func(p *core.PCB) bool {
				if p.State == core.StateTimeWait {
					walked++
				}
				return true
			})
			if got := s.TimeWaitCount(); got != walked {
				t.Fatalf("%s: TimeWaitCount %d, table walk finds %d", step, got, walked)
			}
		}
		if got := client.TimeWaitCount(); got != want {
			t.Fatalf("%s: client TimeWaitCount %d, want %d", step, got, want)
		}
	}
	const n = 6
	conns := make([]*Conn, n)
	for i := range conns {
		c, err := client.Connect(serverAddr, 80, uint16(46000+i), nil)
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	check("established", 0)
	for i, c := range conns {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		check("FIN sent", i)
		if _, err := Pump(client, server); err != nil {
			t.Fatal(err)
		}
		check("close", i+1)
	}
	if _, err := client.Deliver(rstFor(t, conns[0])); err != nil {
		t.Fatal(err)
	}
	check("RST in TIME_WAIT", n-1)
	client.Tick(1)
	if !client.Extract(&conns[1].pcb) {
		t.Fatal("Extract failed")
	}
	check("Extract", n-2)
	if err := client.Adopt(&conns[1].pcb); err != nil {
		t.Fatal(err)
	}
	check("Adopt", n-1)
	// The adopted linger restarted its 2MSL at t=1; the rest expire at 2.
	client.Tick(2.5)
	check("2MSL expiry", 1)
	if got := client.ReapTimeWait(); got != 1 {
		t.Fatalf("ReapTimeWait collected %d, want 1", got)
	}
	check("ReapTimeWait", 0)
}

// TestTickBackwardsIsNoOp: the virtual clock never runs backwards.
func TestTickBackwardsIsNoOp(t *testing.T) {
	s := NewStack(clientAddr, core.NewMapDemux(), 1)
	s.Tick(10)
	s.Tick(5)
	if got := s.Now(); got != 10 {
		t.Fatalf("Now = %v after backwards tick, want 10", got)
	}
}

// rtxOf and lifeOf read c's timer handles: the zero Timer while c holds
// no txState.
func rtxOf(c *Conn) timer.Timer {
	if c.tx == nil {
		return timer.Timer{}
	}
	return c.tx.rtx
}

func lifeOf(c *Conn) timer.Timer {
	if c.tx == nil {
		return timer.Timer{}
	}
	return c.tx.life
}

// TestTimerHandlesClearedWhereTimersEnd walks one connection through every
// way a lifecycle timer ends (it fires, the acknowledgement quenches it,
// Extract cancels it, teardown cancels it, the 2MSL clock runs out) and
// requires the Conn's handle to be the zero Timer afterwards (a Conn
// holding no txState has only zero handles). The wheel recycles timer
// storage, so a handle kept past its timer's end would name someone
// else's timer; the engine keeps none, and a copy kept on purpose (stale,
// below) is inert.
func TestTimerHandlesClearedWhereTimersEnd(t *testing.T) {
	zero := func(when string, h timer.Timer) {
		t.Helper()
		if h != (timer.Timer{}) {
			t.Fatalf("%s: handle not cleared (pending=%v)", when, h.Pending())
		}
	}
	server, client := pair(t, core.NewMapDemux())
	client.SetTimers(0.1, 0, 0.5)
	if err := server.Listen(80, nil); err != nil {
		t.Fatal(err)
	}
	var serverConn *Conn
	server.OnAccept = func(c *Conn) { serverConn = c }
	conn, err := client.Connect(serverAddr, 80, 40000, nil)
	if err != nil {
		t.Fatal(err)
	}
	cd := conn.pcb.UserData.(*Conn)

	// Fire: the SYN's timer runs out, re-queues the SYN and re-arms.
	stale := rtxOf(cd)
	if !stale.Pending() {
		t.Fatal("Connect armed no retransmission timer")
	}
	client.Tick(0.15)
	if stale.Pending() || stale.Cancel() {
		t.Fatal("the fired timer's handle is still live")
	}
	if !rtxOf(cd).Pending() || rtxOf(cd) == stale {
		t.Fatal("the fire did not re-arm under a fresh handle")
	}

	// Acknowledgement: the handshake completes; on the server the
	// SYN_RCVD give-up timer ends with it.
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	zero("client rtx after SYN|ACK", rtxOf(cd))
	scd := serverConn.pcb.UserData.(*Conn)
	zero("server rtx after the handshake ACK", rtxOf(scd))
	zero("server life after the handshake ACK", lifeOf(scd))

	// Extract: data in flight, timers canceled, handles cleared; Adopt on
	// the same stack re-arms.
	if err := conn.Send([]byte("in flight")); err != nil {
		t.Fatal(err)
	}
	pcb := &conn.pcb
	if !client.Extract(pcb) {
		t.Fatal("extract failed")
	}
	zero("rtx after Extract", rtxOf(cd))
	if n := client.PendingTimers(); n != 0 {
		t.Fatalf("%d timer(s) pending after Extract", n)
	}
	if err := client.Adopt(pcb); err != nil {
		t.Fatal(err)
	}
	if !rtxOf(cd).Pending() {
		t.Fatal("Adopt did not re-arm the retransmission timer")
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	zero("rtx after the data was acknowledged", rtxOf(cd))

	// Many more arm/cancel rounds with the clock moving, so the wheel
	// hands the same storage out again and again; every handle ever held
	// is kept and canceled at the end, and none of them may touch the one
	// live timer.
	var kept []timer.Timer
	for i := 0; i < 200; i++ {
		if err := conn.Send([]byte("x")); err != nil {
			t.Fatal(err)
		}
		kept = append(kept, rtxOf(cd))
		if i == 199 {
			break // leave the last one in flight
		}
		if _, err := Pump(client, server); err != nil {
			t.Fatal(err)
		}
		client.Tick(client.Now() + 0.25)
	}
	for _, h := range kept[:199] {
		if h.Pending() || h.Cancel() {
			t.Fatal("a handle whose timer was acknowledged long ago is live")
		}
	}
	if !rtxOf(cd).Pending() || client.PendingTimers() != 1 {
		t.Fatalf("stale cancels disturbed the live timer (pending=%d)", client.PendingTimers())
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}

	// Active close (the server answers the FIN with its own) through
	// TIME_WAIT: the 2MSL timer fires and clears.
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	if conn.State() != core.StateTimeWait || !lifeOf(cd).Pending() {
		t.Fatalf("state %v, 2MSL pending=%v", conn.State(), lifeOf(cd).Pending())
	}
	client.Tick(client.Now() + 2)
	zero("life after 2MSL", lifeOf(cd))
	zero("rtx after teardown", rtxOf(cd))
	if conn.State() != core.StateClosed || client.PendingTimers() != 0 {
		t.Fatalf("state %v, %d timer(s) pending", conn.State(), client.PendingTimers())
	}
}

// TestTxStateLifecycle holds a connection to a txState exactly while
// something is outstanding: a sequence-consuming segment unacknowledged or
// a lifecycle timer armed. It walks a client and a server connection
// through the handshake, a transaction, the passive close's LAST_ACK and
// the active close's TIME_WAIT, migrates one with a request in flight,
// and then runs 10,000 transactions to show the records recycle: the free
// lists never grow past the most records ever held at once.
func TestTxStateLifecycle(t *testing.T) {
	server, client := pair(t, core.NewMapDemux())
	client.SetTimers(0, 0, 0.5)
	if err := server.Listen(80, echoUpper); err != nil {
		t.Fatal(err)
	}
	holds := func(when string, c *Conn, want bool) {
		t.Helper()
		if got := c.tx != nil; got != want {
			t.Fatalf("%s: holds a txState = %v, want %v", when, got, want)
		}
	}
	timers := func(when string, s *Stack, want int) {
		t.Helper()
		if n := s.PendingTimers(); n != want {
			t.Fatalf("%s: %d timer(s) pending, want %d", when, n, want)
		}
	}
	deliverAll := func(from, to *Stack) {
		t.Helper()
		for _, f := range from.Drain() {
			if _, err := to.Deliver(f); err != nil {
				t.Fatal(err)
			}
		}
	}

	conn, err := client.Connect(serverAddr, 80, 40000, nil)
	if err != nil {
		t.Fatal(err)
	}
	holds("client after SYN", conn, true)
	deliverAll(client, server)
	sk := core.Key{LocalAddr: serverAddr, LocalPort: 80, RemoteAddr: clientAddr, RemotePort: 40000}
	sc := pcbOf(server, sk).UserData.(*Conn)
	holds("server in SYN_RCVD", sc, true)
	timers("server in SYN_RCVD", server, 2) // the SYN|ACK's rtx and the give-up clock

	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	holds("client after the handshake", conn, false)
	holds("server after the handshake ACK", sc, false)
	timers("server after the handshake ACK", server, 0)
	timers("client after the handshake", client, 0)

	if err := conn.Send([]byte("request")); err != nil {
		t.Fatal(err)
	}
	holds("client with a request in flight", conn, true)
	deliverAll(client, server)
	holds("server with its response in flight", sc, true)
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	holds("client after the response acknowledged the request", conn, false)
	holds("server after the response was acknowledged", sc, false)

	// Migration: Extract carries the record with the connection and stops
	// its timer; Adopt on another stack re-arms it there, and that stack's
	// free list takes it back once the request is acknowledged.
	if err := conn.Send([]byte("migrating")); err != nil {
		t.Fatal(err)
	}
	rec := conn.tx
	if !client.Extract(&conn.pcb) {
		t.Fatal("extract failed")
	}
	if conn.tx != rec || rec.unacked == nil {
		t.Fatal("Extract did not carry the txState with the connection")
	}
	timers("client after Extract", client, 0)
	moved := NewStack(clientAddr, core.NewMapDemux(), 9)
	moved.SetTimers(0, 0, 0.5)
	if err := moved.Adopt(&conn.pcb); err != nil {
		t.Fatal(err)
	}
	if conn.tx != rec || !rec.rtx.Pending() {
		t.Fatal("Adopt did not re-arm the carried txState")
	}
	timers("the adopting stack", moved, 1)
	deliverAll(client, server) // the request, queued before the move
	if _, err := Pump(moved, server); err != nil {
		t.Fatal(err)
	}
	holds("migrated client after the ACK", conn, false)
	if len(moved.txFree) != 1 || moved.txFree[0] != rec {
		t.Fatalf("the adopting stack's free list is %v, want the carried record", moved.txFree)
	}
	client = moved

	// Passive close on the server: LAST_ACK holds the record for its FIN
	// until the final ACK tears the connection down.
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	holds("client in FIN_WAIT_1", conn, true)
	deliverAll(client, server)
	if sc.State() != core.StateLastAck {
		t.Fatalf("server state %v, want LAST_ACK", sc.State())
	}
	holds("server in LAST_ACK", sc, true)
	deliverAll(server, client)
	deliverAll(client, server)
	holds("server after the final ACK", sc, false)
	timers("server after the final ACK", server, 0)

	// Active close on the client: TIME_WAIT holds the record for the 2MSL
	// clock until it fires.
	if conn.State() != core.StateTimeWait {
		t.Fatalf("client state %v, want TIME_WAIT", conn.State())
	}
	holds("client in TIME_WAIT", conn, true)
	timers("client in TIME_WAIT", client, 1)
	client.Tick(client.Now() + 0.5)
	holds("client half-way through 2MSL", conn, true)
	client.Tick(client.Now() + 1)
	holds("client after 2MSL", conn, false)
	if conn.State() != core.StateClosed {
		t.Fatalf("client state %v after 2MSL", conn.State())
	}
	timers("client after 2MSL", client, 0)

	// Recycling: 10,000 transactions over four connections.
	const nconns = 4
	conns := make([]*Conn, nconns)
	for i := range conns {
		if conns[i], err = client.Connect(serverAddr, 80, uint16(41000+i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	peak := func(s *Stack) int {
		n := 0
		s.Demuxer().Walk(func(p *core.PCB) bool {
			if c, ok := p.UserData.(*Conn); ok && c.tx != nil {
				n++
			}
			return true
		})
		return n
	}
	clientPeak, serverPeak := 0, 0
	for txn := 0; txn < 10000; txn += nconns {
		for _, c := range conns {
			if err := c.Send([]byte("txn")); err != nil {
				t.Fatal(err)
			}
		}
		clientPeak = max(clientPeak, peak(client))
		deliverAll(client, server)
		serverPeak = max(serverPeak, peak(server))
		if _, err := Pump(client, server); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range conns {
		holds("a connection after its last transaction", c, false)
	}
	if n := len(client.txFree); n > clientPeak {
		t.Fatalf("the client's free list holds %d records, more than the %d ever outstanding", n, clientPeak)
	}
	if n := len(server.txFree); n > serverPeak {
		t.Fatalf("the server's free list holds %d records, more than the %d ever outstanding", n, serverPeak)
	}
	for _, rec := range append(client.txFree, server.txFree...) {
		if rec.unacked != nil || rec.unackedEnd != 0 || rec.retries != 0 || rec.rtx != (timer.Timer{}) || rec.life != (timer.Timer{}) {
			t.Fatal("a record on a free list was not cleared")
		}
	}
}
