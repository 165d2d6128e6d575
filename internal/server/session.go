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
// synthetic engine connection. Every field belongs to the engine loop. It
// is 48 B, the 48-B size class: what a resident TPC/A terminal costs the
// frontend beside its slot in Server.conns.
//
//demux:singlewriter(owner=engineloop)
type session struct {
	// fd is the accepted socket. The kernel reuses descriptor numbers, so
	// an epoll registration carries gen (the accept ordinal's low bits) as
	// well: an event queued for an earlier holder of the number does not
	// match. events is the readiness mask currently registered.
	fd     int32
	gen    int32
	events uint32
	// key is the synthetic connection's engine-side PCB key: Local is the
	// engine's server endpoint, Remote the client endpoint minted from
	// (fd, gen), so the key names the session's slot (Server.session).
	key core.Key

	// Mini-client TCP state. drained says the close in flight finishes on
	// the Drained counter rather than Served; it is set on every entry to
	// sessFinSent. eof says the client has ended its stream (the close
	// waits for the write buffer to empty).
	sndNxt  uint32
	rcvNxt  uint32
	state   sessionState
	eof     bool
	drained bool
	// bufs is nil until a request line splits across reads or a write
	// falls short, and is then kept until finish.
	bufs *sessionBufs
}

// sessionBufs is what a session holds only once a peer needs it.
type sessionBufs struct {
	// appBuf holds a request line whose newline has not arrived yet; wbuf
	// holds reply bytes a full socket buffer did not take, at most
	// DefaultWriteBacklog of them, while EPOLLOUT is registered.
	appBuf []byte
	wbuf   []byte
}

// buffers returns the session's buffers, allocating them on first use.
//
//demux:owner(engineloop)
func (ss *session) buffers() *sessionBufs {
	if ss.bufs == nil {
		ss.bufs = new(sessionBufs)
	}
	return ss.bufs
}

// pending is how many reply bytes wait for the socket to take them.
//
//demux:owner(engineloop)
func (ss *session) pending() int {
	if ss.bufs == nil {
		return 0
	}
	return len(ss.bufs.wbuf)
}

// The synthetic client endpoint spells the session's slot: 20 bits of
// descriptor and 18 of generation, spread over the 23 host bits of
// 10.128/9 (no synthetic client is ever the server's 10.0.0.1) and 15 bits
// of port, 1024..33791. A descriptor above maxSessionFD is refused at
// accept; Linux's default fs.nr_open (2^20) never hands one out.
const (
	genBits      = 18
	portBits     = 15
	portBase     = 1024
	maxSessionFD = 1<<20 - 1
)

// endpoint mints the client endpoint of descriptor fd's holder of
// generation gen (taken mod 2^18).
func endpoint(fd, gen int32) (wire.Addr, uint16) {
	v := uint64(fd)<<genBits | uint64(uint32(gen)&(1<<genBits-1))
	host := v >> portBits
	return wire.MakeAddr(10, 128|byte(host>>16), byte(host>>8), byte(host)),
		uint16(portBase + v&(1<<portBits-1))
}

// fdOf inverts endpoint on a key's remote side: the descriptor whose
// session may own key, or !ok if no session's endpoint has that shape.
func fdOf(key core.Key) (int, bool) {
	a, port := key.RemoteAddr, key.RemotePort
	if a[0] != 10 || a[1]&0x80 == 0 || port < portBase || port >= portBase+1<<portBits {
		return 0, false
	}
	host := uint64(a[1]&0x7f)<<16 | uint64(a[2])<<8 | uint64(a[3])
	return int((host<<portBits | uint64(port-portBase)) >> genBits), true
}

// newSession builds the bridge state for accepted descriptor fd under
// generation gen (the accept ordinal): its synthetic client endpoint and
// a seeded initial sequence number.
func newSession(fd, gen int32, server wire.Addr, iss uint32) *session {
	addr, port := endpoint(fd, gen)
	return &session{
		fd:     fd,
		gen:    gen,
		events: syscall.EPOLLIN,
		key: core.Key{
			LocalAddr: server, LocalPort: ServicePort,
			RemoteAddr: addr, RemotePort: port,
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
