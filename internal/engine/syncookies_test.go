package engine

import (
	"bytes"
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/wire"
)

// TestSynCookiesAdmitClientDuringFlood is the acceptance check for the
// stateless handshake path: under a 5000-SYN spoofed flood a legitimate
// client must complete its handshake WHILE the flood is still running —
// the backlog stays full the whole time — and the per-reason counters
// must show where every shed segment went.
func TestSynCookiesAdmitClientDuringFlood(t *testing.T) {
	d := core.NewSequentHash(19, nil)
	server := NewStack(serverAddr, d, 1)
	server.SetBacklog(64)
	server.SynCookies = true
	if err := server.Listen(1521, echoUpper); err != nil {
		t.Fatal(err)
	}

	const flood = 5000
	spoof := func(i int) {
		src := wire.MakeAddr(198, 51, byte(i>>8), byte(i))
		if _, err := server.Deliver(synFrom(t, src, uint16(1024+i%60000))); err != nil {
			t.Fatal(err)
		}
		server.Drain() // SYN|ACKs to spoofed hosts go nowhere
	}

	// First half of the flood: fills the backlog, then goes stateless.
	for i := 0; i < flood/2; i++ {
		spoof(i)
	}
	if got := d.Len(); got != 1+64 {
		t.Fatalf("table grew to %d PCBs under flood, want %d", got, 1+64)
	}

	// Mid-flood: a real client connects. Its SYN meets a full backlog, so
	// the server must answer with a cookie SYN|ACK and admit the ACK.
	client := NewStack(clientAddr, core.NewMapDemux(), 2)
	conn, err := client.Connect(serverAddr, 1521, 40000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	if conn.State() != core.StateEstablished {
		t.Fatalf("legitimate client stuck in %v during flood", conn.State())
	}
	// The server side must be a full connection too, created directly in
	// ESTABLISHED with no backlog slot consumed.
	r := d.Lookup(core.Key{
		LocalAddr: serverAddr, RemoteAddr: clientAddr,
		LocalPort: 1521, RemotePort: 40000,
	}, core.DirData)
	if r.PCB == nil || r.PCB.State != core.StateEstablished {
		t.Fatalf("server has no established PCB for the cookie client: %+v", r.PCB)
	}

	// Second half of the flood, then prove the connection actually works
	// while the attack continues.
	for i := flood / 2; i < flood; i++ {
		spoof(i)
	}
	if err := conn.Send([]byte("mid-flood ping")); err != nil {
		t.Fatal(err)
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	if got := newestRx(conn); !bytes.Equal(got, []byte("MID-FLOOD PING")) {
		t.Fatalf("echo over cookie connection = %q", got)
	}

	st := server.Stats()
	// 64 SYNs took backlog slots; the rest of the flood plus the client's
	// SYN were answered statelessly.
	if want := uint64(flood - 64 + 1); st.CookiesSent != want {
		t.Fatalf("CookiesSent = %d, want %d", st.CookiesSent, want)
	}
	if st.CookiesAccepted != 1 {
		t.Fatalf("CookiesAccepted = %d, want 1", st.CookiesAccepted)
	}
	// SynDrops keeps counting backlog refusals for comparability with the
	// no-cookie experiments, but nothing was shed unanswered.
	if want := uint64(flood - 64 + 1); st.SynDrops != want {
		t.Fatalf("SynDrops = %d, want %d", st.SynDrops, want)
	}
	if st.DroppedBacklogFull != 0 {
		t.Fatalf("DroppedBacklogFull = %d with cookies enabled", st.DroppedBacklogFull)
	}

	// A forged third-step ACK (guessing the cookie) must be rejected,
	// counted, and answered with RST — never admitted.
	forged, err := wire.BuildSegment(
		wire.IPv4Header{TTL: 64, Src: wire.MakeAddr(203, 0, 113, 9), Dst: serverAddr},
		wire.TCPHeader{SrcPort: 31337, DstPort: 1521, Seq: 7001, Ack: 0xdeadbeef, Flags: wire.FlagACK, Window: 1024},
		nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Deliver(forged); err != nil {
		t.Fatal(err)
	}
	st = server.Stats()
	if st.DroppedBadCookie != 1 {
		t.Fatalf("DroppedBadCookie = %d, want 1", st.DroppedBadCookie)
	}
	if st.CookiesAccepted != 1 {
		t.Fatalf("forged ACK changed CookiesAccepted to %d", st.CookiesAccepted)
	}
	out := server.Drain()
	if len(out) != 1 {
		t.Fatalf("forged ACK produced %d frames, want 1 RST", len(out))
	}
	seg, err := wire.ParseSegment(out[0])
	if err != nil {
		t.Fatal(err)
	}
	if seg.TCP.Flags&wire.FlagRST == 0 {
		t.Fatal("forged ACK not answered with RST")
	}
}

// TestSynCookiesValidACKWithPayload: the validating ACK may carry data
// (the client is allowed to pipeline its first request); the payload must
// be delivered to the handler, not lost.
func TestSynCookiesValidACKWithPayload(t *testing.T) {
	d := core.NewSequentHash(19, nil)
	server := NewStack(serverAddr, d, 1)
	server.SetBacklog(1)
	server.SynCookies = true
	if err := server.Listen(80, echoUpper); err != nil {
		t.Fatal(err)
	}
	// Fill the single backlog slot so the next SYN goes stateless.
	filler, err := wire.BuildSegment(
		wire.IPv4Header{TTL: 64, Src: wire.MakeAddr(198, 51, 0, 1), Dst: serverAddr},
		wire.TCPHeader{SrcPort: 2048, DstPort: 80, Seq: 1, Flags: wire.FlagSYN, Window: 1024},
		nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Deliver(filler); err != nil {
		t.Fatal(err)
	}
	server.Drain()

	// Hand-roll the client side so we can attach data to the third ACK.
	src := wire.MakeAddr(203, 0, 113, 77)
	syn, err := wire.BuildSegment(
		wire.IPv4Header{TTL: 64, Src: src, Dst: serverAddr},
		wire.TCPHeader{SrcPort: 5555, DstPort: 80, Seq: 100, Flags: wire.FlagSYN, Window: 1024},
		nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Deliver(syn); err != nil {
		t.Fatal(err)
	}
	out := server.Drain()
	if len(out) != 1 {
		t.Fatalf("SYN produced %d frames", len(out))
	}
	synack, err := wire.ParseSegment(out[0])
	if err != nil {
		t.Fatal(err)
	}
	if synack.TCP.Flags != wire.FlagSYN|wire.FlagACK {
		t.Fatalf("expected SYN|ACK, got flags %#x", synack.TCP.Flags)
	}
	ack, err := wire.BuildSegment(
		wire.IPv4Header{TTL: 64, Src: src, Dst: serverAddr},
		wire.TCPHeader{
			SrcPort: 5555, DstPort: 80,
			Seq: 101, Ack: synack.TCP.Seq + 1,
			Flags: wire.FlagACK, Window: 1024,
		},
		[]byte("get index"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Deliver(ack); err != nil {
		t.Fatal(err)
	}
	reply := server.Drain()
	if len(reply) != 1 {
		t.Fatalf("piggybacked request produced %d frames", len(reply))
	}
	seg, err := wire.ParseSegment(reply[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seg.Payload, []byte("GET INDEX")) {
		t.Fatalf("handler reply = %q", seg.Payload)
	}
	if st := server.Stats(); st.CookiesAccepted != 1 {
		t.Fatalf("CookiesAccepted = %d", st.CookiesAccepted)
	}
}
