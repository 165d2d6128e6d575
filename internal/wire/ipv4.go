package wire

import (
	"errors"
	"fmt"
)

// Protocol numbers and structural constants for the IPv4 header.
const (
	protoTCP = 6

	// IPv4HeaderLen is the length of an IPv4 header without options.
	IPv4HeaderLen = 20
	// IPv4MaxHeaderLen is the largest encodable IPv4 header (IHL=15).
	IPv4MaxHeaderLen = 60
	// ipv4Version is the version nibble for IPv4.
	ipv4Version = 4

	// ipFlagDF and ipFlagMF are the don't-fragment and more-fragments bits
	// within the 3-bit flags field.
	ipFlagDF = 0x2
	ipFlagMF = 0x1
)

// Errors reported by the IPv4 codec.
var (
	ErrIPv4Truncated   = errors.New("wire: buffer shorter than IPv4 header")
	ErrIPv4Version     = errors.New("wire: not an IPv4 packet")
	ErrIPv4BadIHL      = errors.New("wire: IPv4 header length field invalid")
	ErrIPv4BadLength   = errors.New("wire: IPv4 total length inconsistent with buffer")
	ErrIPv4BadChecksum = errors.New("wire: IPv4 header checksum mismatch")
)

// Addr is an IPv4 address in network byte order. A fixed array keeps keys
// comparable and allocation-free.
type Addr [4]byte

// String formats the address in dotted-quad notation.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// MakeAddr builds an Addr from four octets.
func MakeAddr(a, b, c, d byte) Addr { return Addr{a, b, c, d} }

// IPv4Header is the parsed form of an IPv4 header. Options are preserved
// verbatim; nothing in this repo interprets them, but a faithful codec must
// round-trip them.
type IPv4Header struct {
	TOS      uint8
	TotalLen uint16
	ID       uint16
	Flags    uint8 // 3 bits: reserved, DF, MF
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Src      Addr
	Dst      Addr
	Options  []byte // multiple of 4 bytes, at most 40
}

// HeaderLen returns the encoded header length in bytes.
func (h *IPv4Header) HeaderLen() int { return IPv4HeaderLen + len(h.Options) }

// IsFragment reports whether this header describes a fragment: either a
// non-first piece (offset > 0) or a first piece with more to follow (MF).
func (h *IPv4Header) IsFragment() bool {
	return h.FragOff != 0 || h.Flags&ipFlagMF != 0
}

// Marshal appends the encoded header to buf and returns the extended slice.
// The header checksum is computed; TotalLen is written as provided so the
// caller controls payload accounting.
func (h *IPv4Header) Marshal(buf []byte) ([]byte, error) {
	if !h.optionsFit() {
		return nil, ErrIPv4BadIHL
	}
	hlen := h.HeaderLen()
	start := len(buf)
	buf = append(buf, make([]byte, hlen)...)
	h.put(buf[start:])
	return buf, nil
}

// optionsFit reports whether the options are encodable: whole 32-bit words,
// at most 40 bytes.
func (h *IPv4Header) optionsFit() bool {
	return len(h.Options)%4 == 0 && len(h.Options) <= IPv4MaxHeaderLen-IPv4HeaderLen
}

// put encodes the header, checksum included, into b, which is exactly
// HeaderLen() zeroed bytes. The caller has checked optionsFit.
func (h *IPv4Header) put(b []byte) {
	b[0] = ipv4Version<<4 | uint8(len(b)/4)
	b[1] = h.TOS
	putU16(b[2:], h.TotalLen)
	putU16(b[4:], h.ID)
	putU16(b[6:], uint16(h.Flags&0x7)<<13|h.FragOff&0x1fff)
	b[8] = h.TTL
	b[9] = h.Protocol
	copy(b[12:16], h.Src[:])
	copy(b[16:20], h.Dst[:])
	copy(b[20:], h.Options)
	putU16(b[10:], Checksum(b))
}

// Unmarshal parses an IPv4 header from b, validating version, IHL, total
// length, and the header checksum. It returns the header length consumed.
//
// b may be longer than the datagram: link layers pad small frames (an
// Ethernet payload is at least 46 bytes), so trailing bytes beyond
// TotalLen are legitimate and ignored — callers bound the datagram with
// the returned header's TotalLen, never len(b). Only the converse, a
// buffer holding fewer bytes than TotalLen claims, is rejected: that
// datagram is truncated and no parse can recover it.
//
//demux:hotpath
func (h *IPv4Header) Unmarshal(b []byte) (int, error) {
	if len(b) < IPv4HeaderLen {
		return 0, ErrIPv4Truncated
	}
	if b[0]>>4 != ipv4Version {
		return 0, ErrIPv4Version
	}
	hlen := int(b[0]&0x0f) * 4
	if hlen < IPv4HeaderLen {
		return 0, ErrIPv4BadIHL
	}
	if len(b) < hlen {
		return 0, ErrIPv4Truncated
	}
	total := int(getU16(b[2:]))
	if total < hlen {
		// The datagram cannot be smaller than its own header.
		return 0, ErrIPv4BadLength
	}
	if total > len(b) {
		// Truncated capture: the buffer holds less than the datagram
		// claims. (len(b) > total is NOT an error — see above.)
		return 0, ErrIPv4BadLength
	}
	if Checksum(b[:hlen]) != 0 {
		return 0, ErrIPv4BadChecksum
	}
	h.TOS = b[1]
	h.TotalLen = uint16(total)
	h.ID = getU16(b[4:])
	ff := getU16(b[6:])
	h.Flags = uint8(ff >> 13)
	h.FragOff = ff & 0x1fff
	h.TTL = b[8]
	h.Protocol = b[9]
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	if hlen > IPv4HeaderLen {
		h.Options = append(h.Options[:0], b[IPv4HeaderLen:hlen]...) //demux:allowalloc only a header with options, and then only until h has the capacity
	} else {
		h.Options = nil
	}
	return hlen, nil
}

func putU16(b []byte, v uint16) { b[0] = byte(v >> 8); b[1] = byte(v) }
func getU16(b []byte) uint16    { return uint16(b[0])<<8 | uint16(b[1]) }
func putU32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}
func getU32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
