package shard

import (
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/engine"
	"tcpdemux/internal/wire"
)

// allocClient is a hand-rolled TCP peer for TestFramePathAllocations: it
// builds its frames ahead of the measured calls, so that what is counted is
// the set's work and not the test's.
type allocClient struct {
	t              *testing.T
	set            *StackSet
	ip             wire.IPv4Header
	port           uint16
	sndNxt, rcvNxt uint32
	egress         [][]byte // what the tap caught since the last take
}

func (c *allocClient) frame(flags uint8, payload []byte) []byte {
	f, err := wire.BuildSegment(c.ip, wire.TCPHeader{
		SrcPort: c.port, DstPort: 1521, Seq: c.sndNxt, Ack: c.rcvNxt, Flags: flags, Window: 65535,
	}, payload)
	if err != nil {
		c.t.Fatal(err)
	}
	c.sndNxt += uint32(len(payload))
	if flags&wire.FlagSYN != 0 {
		c.sndNxt++
	}
	return f
}

func (c *allocClient) deliver(f []byte) {
	if _, err := c.set.Deliver(f); err != nil {
		c.t.Fatal(err)
	}
}

// take returns the one frame the set must have emitted since the last take.
func (c *allocClient) take() *wire.Segment {
	if len(c.egress) != 1 {
		c.t.Fatalf("%d egress frame(s), want 1", len(c.egress))
	}
	seg, err := wire.ParseSegment(c.egress[0])
	if err != nil {
		c.t.Fatal(err)
	}
	c.egress = c.egress[:0]
	return seg
}

// TestFramePathAllocations pins what one transaction allocates on a warmed
// 4-shard set with an egress tap: the request frame costs exactly the
// response frame the tap consumer keeps (the handler here allocates
// nothing of its own), and the pure acknowledgement that follows costs
// nothing — no parsed Segment, no timer, no closure, no map write.
func TestFramePathAllocations(t *testing.T) {
	const warm, measured = 50, 100
	set := newSet(t, 4, 21)
	c := &allocClient{t: t, set: set, port: 40000, sndNxt: 1000,
		ip: wire.IPv4Header{TTL: 64, Src: wire.MakeAddr(10, 0, 0, 2), Dst: set.Addr()}}
	set.SetEgressTap(func(f []byte) { c.egress = append(c.egress, f) })
	request, response := []byte("TXN 1 1 8 -250\n"), []byte("OK 8 1 2 3\n")
	if err := set.Listen(1521, func(*engine.Conn, []byte) []byte { return response }); err != nil {
		t.Fatal(err)
	}

	c.deliver(c.frame(wire.FlagSYN, nil))
	c.rcvNxt = c.take().TCP.Seq + 1
	c.deliver(c.frame(wire.FlagACK, nil))

	// Every transaction's two frames, built before anything is measured:
	// the sequence numbers are known because the response length is.
	// AllocsPerRun calls its function once more than it counts.
	type txn struct{ req, ack []byte }
	txns := make([]txn, 0, warm+2*(measured+1))
	for len(txns) < cap(txns) {
		req := c.frame(wire.FlagACK|wire.FlagPSH, request)
		c.rcvNxt += uint32(len(response))
		txns = append(txns, txn{req, c.frame(wire.FlagACK, nil)})
	}
	next := 0
	run := func(acked bool) {
		c.egress = c.egress[:0]
		c.deliver(txns[next].req)
		if acked {
			c.deliver(txns[next].ack)
		}
		next++
	}

	// Warm-up: the timer pool, the wheel's buckets and the tap's queue
	// grow to what one connection needs.
	for i := 0; i < warm; i++ {
		run(true)
	}

	if n := testing.AllocsPerRun(measured, func() { run(true) }); n != 1 {
		t.Errorf("request + acknowledgement allocate %v times, want 1 (the egress frame)", n)
	}
	if n := testing.AllocsPerRun(measured, func() { run(false) }); n != 1 {
		t.Errorf("request alone allocates %v times, want 1: the acknowledgement is not free", n)
	}
	if seg := c.take(); string(seg.Payload) != string(response) || seg.TCP.Ack != c.sndNxt {
		t.Fatalf("last response %q ack %d, want %q ack %d", seg.Payload, seg.TCP.Ack, response, c.sndNxt)
	}
	dup := txns[next-1].ack
	if n := testing.AllocsPerRun(measured, func() { c.deliver(dup) }); n != 0 {
		t.Errorf("pure acknowledgement allocates %v times, want 0", n)
	}
	if acc := set.Accounting(); !acc.Balanced() || acc.Shed != 0 {
		t.Fatalf("ledger: %+v", acc)
	}
	if rtx, aborts, _, _ := set.LifecycleCounters(); rtx != 0 || aborts != 0 {
		t.Fatalf("%d retransmission(s), %d abort(s) on a lossless path", rtx, aborts)
	}
}

// TestPassiveOpenAllocations pins what accepting a connection allocates on
// a warmed 4-shard set: the SYN costs the one Conn (its PCB included; its
// txState comes off the shard's free list) and the SYN|ACK frame, and the
// handshake ACK costs nothing.
// Each round opens a batch of connections and resets them again, so the
// measured round finds the tables, the timer pool, the free list of
// txState records and the tap's queue already grown to the batch; each
// round checks that every handshake ACK completed its connection.
func TestPassiveOpenAllocations(t *testing.T) {
	const batch = 100
	set := newSet(t, 4, 22)
	egress := make([][]byte, 0, batch+1)
	set.SetEgressTap(func(f []byte) { egress = append(egress, f) })
	if err := set.Listen(1521, func(*engine.Conn, []byte) []byte { return nil }); err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun calls its function once more than it counts.
	clients := make([]*allocClient, batch+1)
	for i := range clients {
		clients[i] = &allocClient{t: t, set: set, port: uint16(41000 + i),
			ip: wire.IPv4Header{TTL: 64, Src: wire.MakeAddr(10, 0, 0, 3), Dst: set.Addr()}}
	}
	for round := 0; round < 2; round++ {
		frames := make([][]byte, len(clients))
		for i, c := range clients {
			c.sndNxt, c.rcvNxt = 1000, 0
			frames[i] = c.frame(wire.FlagSYN, nil)
		}
		egress = egress[:0]
		next := 0
		syn := testing.AllocsPerRun(batch, func() { clients[next].deliver(frames[next]); next++ })
		if len(egress) != len(clients) {
			t.Fatalf("%d SYN|ACKs for %d SYNs", len(egress), len(clients))
		}
		for i, f := range egress {
			seg, err := wire.ParseSegment(f)
			if err != nil {
				t.Fatal(err)
			}
			c := clients[int(seg.TCP.DstPort)-41000]
			c.rcvNxt = seg.TCP.Seq + 1
			frames[i] = c.frame(wire.FlagACK, nil)
		}
		next = 0
		ack := testing.AllocsPerRun(batch, func() { clients[0].deliver(frames[next]); next++ })
		if round == 1 && syn+ack > 2 {
			t.Errorf("SYN + handshake ACK allocate %v + %v times, want <= 2 (the Conn and the SYN|ACK frame)", syn, ack)
		}
		established := 0
		for i := 0; i < set.Shards(); i++ {
			for _, ci := range set.Shard(i).PCBs() {
				if ci.State == core.StateEstablished {
					established++
				}
			}
		}
		if established != len(clients) {
			t.Fatalf("%d connections ESTABLISHED after %d handshake ACKs", established, len(clients))
		}
		for _, c := range clients {
			c.deliver(c.frame(wire.FlagRST, nil))
		}
		if n := set.Len(); n != 4 {
			t.Fatalf("%d PCBs after the resets, want the 4 listeners", n)
		}
	}
}
