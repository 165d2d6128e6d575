package main

// The harness's own frame codec. On the timed path the mini-client never
// calls internal/wire: a change to wire must not move harness time and so
// inflate its own gain. codec_test.go proves these bytes equal
// wire.BuildSegment's and these fields equal wire.ParseSegment's.

import (
	"errors"

	"tcpdemux/internal/core"
	"tcpdemux/internal/wire"
)

const (
	hdrLen = 40 // IPv4 (20) + TCP (20), no options on either

	flagFIN = 0x01
	flagSYN = 0x02
	flagRST = 0x04
	flagPSH = 0x08
	flagACK = 0x10
)

// servicePort is the TPC/A port inside the synthetic stack; the test pins
// it to server.ServicePort.
const servicePort = 1521

var serverAddr = wire.MakeAddr(10, 0, 0, 1)

// clientEndpoint gives synthetic client id a collision-free endpoint, the
// same scheme internal/server uses for accepted sockets: 60000 ports per
// host, hosts in 10.128/9.
func clientEndpoint(id uint32) (wire.Addr, uint16) {
	host := id / 60000
	return wire.MakeAddr(10, 128|byte(host>>16), byte(host>>8), byte(host)), uint16(1024 + id%60000)
}

// clientID inverts clientEndpoint.
func clientID(addr [4]byte, port uint16) uint32 {
	host := uint32(addr[1]&0x7f)<<16 | uint32(addr[2])<<8 | uint32(addr[3])
	return host*60000 + uint32(port) - 1024
}

// template is the constant part of every frame one synthetic client
// sends: both fixed headers with addresses, ports, TTL and window filled,
// plus the two partial checksums those constants contribute.
type template struct {
	hdr    [hdrLen]byte
	ipSum  uint32 // IP header with total length and checksum zero
	pseudo uint32 // TCP pseudo-header without the segment length
}

func newTemplate(id uint32) template {
	var t template
	addr, port := clientEndpoint(id)
	h := t.hdr[:]
	h[0] = 0x45
	h[8] = 64 // TTL
	h[9] = 6  // TCP
	copy(h[12:16], addr[:])
	copy(h[16:20], serverAddr[:])
	put16(h[20:], port)
	put16(h[22:], servicePort)
	h[32] = 5 << 4 // data offset
	put16(h[34:], 65535)
	t.ipSum = sum16(h[:20], 0)
	t.pseudo = sum16(h[12:20], 6)
	return t
}

// key is the engine-side PCB key of the client's connection.
func (t *template) key() core.Key {
	var k core.Key
	copy(k.RemoteAddr[:], t.hdr[12:16])
	copy(k.LocalAddr[:], t.hdr[16:20])
	k.RemotePort = get16(t.hdr[20:])
	k.LocalPort = servicePort
	return k
}

// build returns a fresh frame: the template with sequence numbers, flags,
// lengths and RFC 1071 checksums patched in. The frame is newly allocated
// because the system under test may keep what it is handed.
func (t *template) build(seq, ack uint32, flags uint8, payload []byte) []byte {
	n := hdrLen + len(payload)
	b := make([]byte, n)
	copy(b, t.hdr[:])
	put16(b[2:], uint16(n))
	put16(b[10:], fold(t.ipSum+uint32(n)))
	put32(b[24:], seq)
	put32(b[28:], ack)
	b[33] = flags
	copy(b[hdrLen:], payload)
	put16(b[36:], fold(sum16(b[20:], t.pseudo+uint32(n-20))))
	return b
}

// segment is what the mini-client reads from an egress frame.
type segment struct {
	id       uint32 // synthetic client the frame is addressed to
	seq, ack uint32
	flags    uint8
	payload  []byte
}

var errBadFrame = errors.New("bench: egress frame malformed or checksum mismatch")

// parse decodes an engine egress frame, verifying both checksums.
func parse(b []byte) (segment, error) {
	var s segment
	if len(b) < hdrLen || b[0] != 0x45 || b[9] != 6 || b[32]>>4 != 5 {
		return s, errBadFrame
	}
	n := int(get16(b[2:]))
	if n < hdrLen || n > len(b) || fold(sum16(b[:20], 0)) != 0 {
		return s, errBadFrame
	}
	if fold(sum16(b[20:n], sum16(b[12:20], 6)+uint32(n-20))) != 0 {
		return s, errBadFrame
	}
	s.id = clientID([4]byte(b[16:20]), get16(b[22:]))
	s.seq = get32(b[24:])
	s.ack = get32(b[28:])
	s.flags = b[33]
	s.payload = b[hdrLen:n]
	return s, nil
}

func sum16(b []byte, acc uint32) uint32 {
	for len(b) >= 2 {
		acc += uint32(b[0])<<8 | uint32(b[1])
		b = b[2:]
	}
	if len(b) == 1 {
		acc += uint32(b[0]) << 8
	}
	return acc
}

// fold finishes a one's-complement sum: carries folded in, complemented.
func fold(acc uint32) uint16 {
	for acc>>16 != 0 {
		acc = acc&0xffff + acc>>16
	}
	return ^uint16(acc)
}

func put16(b []byte, v uint16) { b[0], b[1] = byte(v>>8), byte(v) }
func get16(b []byte) uint16    { return uint16(b[0])<<8 | uint16(b[1]) }
func put32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}
func get32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
