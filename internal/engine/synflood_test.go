package engine

import (
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/wire"
)

// synFrom crafts a raw SYN from the given spoofed source.
func synFrom(t *testing.T, src wire.Addr, sport uint16) []byte {
	t.Helper()
	frame, err := wire.BuildSegment(
		wire.IPv4Header{TTL: 64, Src: src, Dst: serverAddr},
		wire.TCPHeader{SrcPort: sport, DstPort: 1521, Seq: 1, Flags: wire.FlagSYN, Window: 1024},
		nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestSynFloodBoundedByBacklog fires thousands of spoofed SYNs (whose
// handshakes never complete) at a listener: the PCB table must stop
// growing at the backlog, the excess must be counted as drops, and a
// legitimate client must still connect once there is room.
func TestSynFloodBoundedByBacklog(t *testing.T) {
	d := core.NewSequentHash(19, nil)
	server := NewStack(serverAddr, d, 1)
	server.SetBacklog(64)
	if err := server.Listen(1521, echoUpper); err != nil {
		t.Fatal(err)
	}
	const flood = 5000
	for i := 0; i < flood; i++ {
		src := wire.MakeAddr(198, 51, byte(i>>8), byte(i))
		if _, err := server.Deliver(synFrom(t, src, uint16(1024+i%60000))); err != nil {
			t.Fatal(err)
		}
		server.Drain() // discard SYN|ACKs to nowhere
	}
	// Table: 1 listener + at most Backlog half-open PCBs.
	if got := d.Len(); got != 1+64 {
		t.Fatalf("table grew to %d PCBs under flood, want %d", got, 1+64)
	}
	if got := server.Stats().SynDrops; got != flood-64 {
		t.Fatalf("SynDrops = %d, want %d", got, flood-64)
	}

	// A real client cannot get in while the backlog is full...
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
	// ...but succeeds after the half-open crowd is torn down (simulate the
	// SYN_RCVD timer by resetting them).
	reaped := 0
	var stale []core.Key
	d.Walk(func(p *core.PCB) bool {
		if p.State == core.StateSynRcvd {
			stale = append(stale, p.Key)
		}
		return true
	})
	for _, k := range stale {
		r := d.Lookup(k, core.DirData)
		if r.PCB == nil {
			continue
		}
		server.teardown(r.PCB.UserData.(*Conn))
		reaped++
	}
	if reaped != 64 {
		t.Fatalf("reaped %d half-open PCBs", reaped)
	}
	// The client's SYN is still in its retransmission buffer.
	if n := client.Retransmit(); n != 1 {
		t.Fatalf("client retransmit queued %d", n)
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	if conn.State() != core.StateEstablished {
		t.Fatalf("legitimate client still blocked: %v", conn.State())
	}
}

// TestBacklogReleasedOnCompletion: normal handshakes must not consume
// backlog permanently.
func TestBacklogReleasedOnCompletion(t *testing.T) {
	server, client := pair(t, core.NewMapDemux())
	server.SetBacklog(4)
	if err := server.Listen(80, echoUpper); err != nil {
		t.Fatal(err)
	}
	// 20 sequential connects through a backlog of 4: each completes before
	// the next begins, so none should drop.
	for i := 0; i < 20; i++ {
		c, err := client.ConnectEphemeral(serverAddr, 80, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Pump(client, server); err != nil {
			t.Fatal(err)
		}
		if c.State() != core.StateEstablished {
			t.Fatalf("conn %d state %v", i, c.State())
		}
	}
	if got := server.Stats().SynDrops; got != 0 {
		t.Fatalf("dropped %d SYNs without a flood", got)
	}
}
