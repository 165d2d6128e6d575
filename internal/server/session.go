//go:build linux

// A session bridges one accepted kernel connection to one synthetic TCP
// connection inside the sharded engine. The frontend plays the *client*
// side of the synthetic connection: it owns a miniature sender state
// (sndNxt/rcvNxt), synthesizes SYN/data/FIN/RST wire frames from socket
// events, and mirrors the engine's egress segments back onto the socket.
// The in-process path between the frontend and the engine is lossless
// and ordered, so this mini-client needs no retransmission or
// out-of-order machinery — every engine output is acknowledged
// synchronously in the same egress pump, long before the engine's RTO
// could fire.
package server

import (
	"encoding/binary"
	"syscall"

	"tcpdemux/internal/core"
	"tcpdemux/internal/telemetry"
	"tcpdemux/internal/wire"
)

// sessionState is the mini-client's view of the synthetic connection.
type sessionState uint8

const (
	// sessHandshake: SYN synthesized, SYN|ACK not yet seen.
	sessHandshake sessionState = iota
	// sessEstablished: three-way handshake complete; data flows.
	sessEstablished
	// sessFinSent: client-side FIN synthesized; awaiting the engine's
	// FIN|ACK to finish.
	sessFinSent
	// sessClosed: session finished and unregistered; late egress frames
	// for this tuple are dropped.
	sessClosed
)

// session is one live bridge between a kernel connection and its
// synthetic engine connection. Every field belongs to the engine loop.
//
//demux:singlewriter(owner=engineloop)
type session struct {
	id uint64
	// fd is the accepted socket. The kernel reuses descriptor numbers, so
	// an epoll registration carries gen (the accept ordinal's low bits) as
	// well: an event queued for an earlier holder of the number does not
	// match. events is the readiness mask currently registered.
	fd     int
	gen    int32
	events uint32
	// key is the synthetic connection's engine-side PCB key: Local is the
	// engine's server endpoint, Remote the synthesized client endpoint.
	key core.Key

	// Mini-client TCP state. closing is the ledger counter (Served or
	// Drained) the close in flight will finish on, set on every entry to
	// sessFinSent.
	state   sessionState
	sndNxt  uint32
	rcvNxt  uint32
	closing *telemetry.Counter
	// appBuf holds a request line whose newline has not arrived yet; wbuf
	// holds reply bytes a full socket buffer did not take, at most
	// DefaultWriteBacklog of them, while EPOLLOUT is registered; eof says
	// the client has ended its stream (the close waits for wbuf to go).
	appBuf []byte
	wbuf   []byte
	eof    bool
}

// newSession builds the bridge state for one accepted connection: a
// collision-free synthetic client endpoint derived from the accept
// ordinal, and a seeded initial sequence number.
func newSession(id uint64, fd int, server wire.Addr, iss uint32) *session {
	// 60000 ephemeral ports per synthetic host, hosts in 10.128/9 so no
	// synthetic client ever collides with the server's 10.0.0.1.
	host := id / 60000
	return &session{
		id:     id,
		fd:     fd,
		gen:    int32(id),
		events: syscall.EPOLLIN,
		key: core.Key{
			LocalAddr: server, LocalPort: ServicePort,
			RemoteAddr: wire.MakeAddr(10, 128|byte(host>>16), byte(host>>8), byte(host)),
			RemotePort: uint16(1024 + id%60000),
		},
		sndNxt: iss,
	}
}

// synth builds one client-side wire frame for the session's synthetic
// connection and advances the mini-client's send sequence (SYN and FIN
// consume one sequence number; data consumes its length), mirroring the
// engine's own send arithmetic. Every call returns a fresh frame: a
// faulted shard's backlog keeps the slice it was given.
//
//demux:owner(engineloop)
func (ss *session) synth(flags uint8, payload []byte) ([]byte, error) {
	ip := wire.IPv4Header{
		TTL: 64,
		Src: ss.key.RemoteAddr, Dst: ss.key.LocalAddr,
	}
	tcp := wire.TCPHeader{
		SrcPort: ss.key.RemotePort, DstPort: ss.key.LocalPort,
		Seq: ss.sndNxt, Ack: ss.rcvNxt,
		Flags: flags, Window: 65535,
	}
	frame, err := wire.BuildSegment(ip, tcp, payload)
	if err != nil {
		return nil, err
	}
	ss.sndNxt += uint32(len(payload))
	if flags&(wire.FlagSYN|wire.FlagFIN) != 0 {
		ss.sndNxt++
	}
	return frame, nil
}

// peekEgress reads what the mini-client needs from a frame the engine has
// just built on this goroutine: the PCB key it belongs to (its source is
// the engine's endpoint, the key's Local side), and at their offsets,
// behind the IP header length and the TCP data offset, the sequence
// number, the flags and the payload. The bytes are the engine's own, so
// no checksum is verified again; a frame too short for its own lengths
// reports !ok.
func peekEgress(frame []byte) (key core.Key, seq uint32, flags uint8, payload []byte, ok bool) {
	tup, err := wire.ExtractTuple(frame)
	if err != nil {
		return key, 0, 0, nil, false
	}
	ihl := int(frame[0]&0x0f) * 4
	total := int(binary.BigEndian.Uint16(frame[2:]))
	if total > len(frame) || total < ihl+wire.TCPHeaderLen {
		return key, 0, 0, nil, false
	}
	tcp := frame[ihl:total]
	off := int(tcp[12]>>4) * 4
	if off < wire.TCPHeaderLen || off > len(tcp) {
		return key, 0, 0, nil, false
	}
	return core.KeyFromTuple(tup.Reverse()), binary.BigEndian.Uint32(tcp[4:]), tcp[13], tcp[off:], true
}
