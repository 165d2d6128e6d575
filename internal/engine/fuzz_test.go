package engine

import (
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/wire"
)

// FuzzDeliver drives arbitrary frames through the full receive path —
// parser, demultiplexer, listener state machine (with SYN cookies armed),
// and the established-connection handlers. The stack must never panic,
// and its counters must stay coherent: every delivered frame either
// progresses a connection or lands in exactly one drop bucket.
func FuzzDeliver(f *testing.F) {
	mustBuild := func(tcp wire.TCPHeader, payload []byte) []byte {
		frame, err := wire.BuildSegment(
			wire.IPv4Header{TTL: 64, Src: clientAddr, Dst: serverAddr},
			tcp, payload,
		)
		if err != nil {
			f.Fatal(err)
		}
		return frame
	}
	// Seeds mirror the mutation-test templates: a SYN to the listener, a
	// plausible cookie ACK, a data segment, a bare RST, and garbage.
	f.Add(mustBuild(wire.TCPHeader{SrcPort: 40000, DstPort: 1521, Seq: 1, Flags: wire.FlagSYN, Window: 1024}, nil))
	f.Add(mustBuild(wire.TCPHeader{SrcPort: 40000, DstPort: 1521, Seq: 2, Ack: 99, Flags: wire.FlagACK, Window: 1024}, nil))
	f.Add(mustBuild(wire.TCPHeader{SrcPort: 40000, DstPort: 1521, Seq: 2, Ack: 99, Flags: wire.FlagACK | wire.FlagPSH, Window: 1024}, []byte("query")))
	f.Add(mustBuild(wire.TCPHeader{SrcPort: 40000, DstPort: 1521, Seq: 5, Flags: wire.FlagRST, Window: 0}, nil))
	f.Add(mustBuild(wire.TCPHeader{SrcPort: 40000, DstPort: 9999, Seq: 1, Flags: wire.FlagSYN | wire.FlagFIN, Window: 1024}, nil))
	f.Add([]byte{})
	f.Add([]byte{0x45, 0x00, 0x00, 0x14})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := core.NewSequentHash(19, nil)
		server := NewStack(serverAddr, d, 1)
		server.SetBacklog(2)
		server.SynCookies = true
		if err := server.Listen(1521, echoUpper); err != nil {
			t.Fatal(err)
		}
		// An established connection gives the fuzzer a live PCB to hit.
		client := NewStack(clientAddr, core.NewMapDemux(), 2)
		conn, err := client.Connect(serverAddr, 1521, 40000, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Pump(client, server); err != nil {
			t.Fatal(err)
		}
		if conn.State() != core.StateEstablished {
			t.Fatal("setup handshake failed")
		}

		if _, err := server.Deliver(data); err != nil {
			// Rejection is fine; only a panic or a wedged table is a bug.
			_ = err
		}
		server.Drain()

		// The table must still answer for the established connection.
		serverKey := core.Key{
			LocalAddr: serverAddr, RemoteAddr: clientAddr,
			LocalPort: conn.Key().RemotePort, RemotePort: conn.Key().LocalPort,
		}
		r := d.Lookup(serverKey, core.DirData)
		if r.PCB == nil {
			// The fuzzer may legitimately tear the connection down (a
			// valid RST for the right tuple); that is correct behavior,
			// not a failure — but the listener must survive anything.
			lr := d.Lookup(core.Key{LocalAddr: serverAddr, LocalPort: 1521,
				RemoteAddr: wire.MakeAddr(1, 2, 3, 4), RemotePort: 7}, core.DirData)
			if lr.PCB == nil || lr.PCB.State != core.StateListen {
				t.Fatal("listener destroyed by fuzzed frame")
			}
		}
	})
}
