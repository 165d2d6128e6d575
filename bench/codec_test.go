package main

import (
	"bytes"
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/rng"
	"tcpdemux/internal/server"
	"tcpdemux/internal/wire"
)

// The frozen codec must produce wire.BuildSegment's bytes and read
// wire.ParseSegment's fields, or the harness would be driving the engine
// with something other than what the repo calls a TCP segment.
func TestCodecMatchesWire(t *testing.T) {
	if servicePort != server.ServicePort {
		t.Fatalf("servicePort = %d, server.ServicePort = %d", servicePort, server.ServicePort)
	}
	src := rng.New(7)
	for i := 0; i < 2000; i++ {
		id := uint32(src.Intn(3_000_000))
		tpl := newTemplate(id)
		seq, ack := uint32(src.Uint64()), uint32(src.Uint64())
		flags := []uint8{flagSYN, flagACK, flagACK | flagPSH, flagFIN | flagACK, flagRST}[src.Intn(5)]
		payload := make([]byte, src.Intn(64))
		for j := range payload {
			payload[j] = byte(src.Uint64())
		}

		addr, port := clientEndpoint(id)
		got := tpl.build(seq, ack, flags, payload)
		want, err := wire.BuildSegment(
			wire.IPv4Header{TTL: 64, Src: addr, Dst: serverAddr},
			wire.TCPHeader{SrcPort: port, DstPort: servicePort, Seq: seq, Ack: ack, Flags: flags, Window: 65535},
			payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("client %d: build = %x, wire.BuildSegment = %x", id, got, want)
		}
		if k := core.KeyFromTuple(wire.Tuple{SrcAddr: addr, SrcPort: port, DstAddr: serverAddr, DstPort: servicePort}); tpl.key() != k {
			t.Fatalf("client %d: key = %v, want %v", id, tpl.key(), k)
		}

		// The reply direction: what the engine would send this client.
		reply, err := wire.BuildSegment(
			wire.IPv4Header{TTL: 64, Src: serverAddr, Dst: addr},
			wire.TCPHeader{SrcPort: servicePort, DstPort: port, Seq: ack, Ack: seq, Flags: flags, Window: 65535},
			payload)
		if err != nil {
			t.Fatal(err)
		}
		seg, err := parse(reply)
		if err != nil {
			t.Fatalf("client %d: parse: %v", id, err)
		}
		ref, err := wire.ParseSegment(reply)
		if err != nil {
			t.Fatal(err)
		}
		if seg.id != id || seg.seq != ref.TCP.Seq || seg.ack != ref.TCP.Ack || seg.flags != ref.TCP.Flags || !bytes.Equal(seg.payload, ref.Payload) {
			t.Fatalf("client %d: parse = %+v, wire.ParseSegment = %+v", id, seg, ref)
		}
		reply[len(reply)-1] ^= 0x40
		if _, err := parse(reply); err == nil && len(payload) > 0 {
			t.Fatalf("client %d: parse accepted a corrupted payload", id)
		}
	}
}

// The oracle's arithmetic and formatting must be server.Ledger's.
func TestOracleMatchesLedger(t *testing.T) {
	src := rng.New(11)
	ledger := server.NewLedger()
	terms := []terminal{newTerminal(0), newTerminal(5999), newTerminal(123456)}
	var req, want []byte
	for i := 0; i < 5000; i++ {
		term := &terms[src.Intn(len(terms))]
		k, delta := src.Intn(accountsPer), int64(src.Intn(1999)-999)
		req, want = term.next(req[:0], want[:0], k, delta)
		account := term.slot*accountsPer + uint32(k)
		if ref := server.FormatRequest(term.slot, term.slot, account, delta); !bytes.Equal(req, ref) {
			t.Fatalf("request %q, server.FormatRequest %q", req, ref)
		}
		parsed, err := server.ParseRequest(req[:len(req)-1])
		if err != nil {
			t.Fatal(err)
		}
		if ref := ledger.Expected(parsed); !bytes.Equal(want, ref) {
			t.Fatalf("oracle %q, server.Ledger.Expected %q", want, ref)
		}
	}
}
