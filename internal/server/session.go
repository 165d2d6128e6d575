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
	"net"

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
// synthetic engine connection. The seq/state fields belong to the engine
// loop; the reader and writer goroutines touch only conn and writeQ.
type session struct {
	id   uint64
	conn net.Conn
	// tup is the synthetic connection's inbound direction (Src = the
	// synthesized client endpoint, Dst = the engine's server endpoint);
	// key is the engine-side PCB key derived from it.
	tup wire.Tuple
	key core.Key

	// writeQ carries engine output payloads to the writer goroutine; the
	// engine loop closes it exactly once, in finish.
	writeQ chan []byte

	// Mini-client TCP state and the server-side application line buffer,
	// all advanced only by the engine loop. closing is the ledger counter
	// (Served or Drained) the close in flight will finish on, set on
	// every entry to sessFinSent.
	state   sessionState       //demux:singlewriter(owner=engineloop)
	sndNxt  uint32             //demux:singlewriter(owner=engineloop)
	rcvNxt  uint32             //demux:singlewriter(owner=engineloop)
	closing *telemetry.Counter //demux:singlewriter(owner=engineloop)
	appBuf  []byte             //demux:singlewriter(owner=engineloop)
}

// newSession builds the bridge state for one accepted connection: a
// collision-free synthetic client endpoint derived from the accept
// ordinal, and a seeded initial sequence number.
func newSession(id uint64, conn net.Conn, server wire.Addr, iss uint32) *session {
	// 60000 ephemeral ports per synthetic host, hosts in 10.128/9 so no
	// synthetic client ever collides with the server's 10.0.0.1.
	host := id / 60000
	tup := wire.Tuple{
		SrcAddr: wire.MakeAddr(10, 128|byte(host>>16), byte(host>>8), byte(host)),
		SrcPort: uint16(1024 + id%60000),
		DstAddr: server,
		DstPort: ServicePort,
	}
	return &session{
		id:     id,
		conn:   conn,
		tup:    tup,
		key:    core.KeyFromTuple(tup),
		writeQ: make(chan []byte, DefaultWriteBacklog),
		sndNxt: iss,
	}
}

// synth builds one client-side wire frame for the session's synthetic
// connection and advances the mini-client's send sequence (SYN and FIN
// consume one sequence number; data consumes its length), mirroring the
// engine's own send arithmetic.
//
//demux:owner(engineloop)
func (ss *session) synth(flags uint8, payload []byte) ([]byte, error) {
	ip := wire.IPv4Header{
		TTL: 64,
		Src: ss.tup.SrcAddr, Dst: ss.tup.DstAddr,
	}
	tcp := wire.TCPHeader{
		SrcPort: ss.tup.SrcPort, DstPort: ss.tup.DstPort,
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
