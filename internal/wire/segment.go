package wire

import (
	"errors"
	"fmt"
)

// Errors reported by the segment layer.
var (
	// ErrNotTCP is returned when a frame's IP protocol field is not TCP.
	ErrNotTCP = errors.New("wire: IP protocol is not TCP")
	// ErrFragmented is returned for IP fragments: only a reassembled
	// datagram carries a complete TCP header, so fragments cannot be
	// demultiplexed directly (see the frag package).
	ErrFragmented = errors.New("wire: IP datagram is fragmented")
)

// Segment is a fully parsed IPv4/TCP packet.
type Segment struct {
	IP      IPv4Header
	TCP     TCPHeader
	Payload []byte
}

// Tuple is the 96-bit demultiplexing tuple the paper describes: the source
// and destination IP addresses and TCP ports of an inbound segment. It is
// comparable and allocation-free.
type Tuple struct {
	SrcAddr Addr
	DstAddr Addr
	SrcPort uint16
	DstPort uint16
}

// String renders the tuple as "src:port > dst:port".
func (t Tuple) String() string {
	return fmt.Sprintf("%s:%d > %s:%d", t.SrcAddr, t.SrcPort, t.DstAddr, t.DstPort)
}

// Reverse returns the tuple as seen from the opposite direction.
func (t Tuple) Reverse() Tuple {
	return Tuple{SrcAddr: t.DstAddr, DstAddr: t.SrcAddr, SrcPort: t.DstPort, DstPort: t.SrcPort}
}

// BuildSegment serializes an IPv4/TCP segment into a fresh buffer: it fills
// in the IP total length, protocol, and both checksums. The given headers
// are not modified. The buffer is the call's one allocation.
//
//demux:hotpath
func BuildSegment(ip IPv4Header, tcp TCPHeader, payload []byte) ([]byte, error) {
	tcpLen, err := tcp.HeaderLen()
	if err != nil {
		return nil, err
	}
	ip.Protocol = protoTCP
	ipLen := ip.HeaderLen()
	total := ipLen + tcpLen + len(payload)
	if total > 0xffff {
		return nil, ErrIPv4BadLength
	}
	ip.TotalLen = uint16(total)
	if !ip.optionsFit() {
		return nil, ErrIPv4BadIHL
	}

	buf := make([]byte, total) //demux:allowalloc the frame itself, which the caller keeps
	ip.put(buf[:ipLen])
	seg := buf[ipLen:]
	tcp.put(seg[:tcpLen])
	copy(seg[tcpLen:], payload)
	putU16(seg[16:], TCPChecksum(ip.Src, ip.Dst, seg))
	return buf, nil
}

// ParseSegment parses and validates a raw IPv4/TCP frame, checking both
// checksums: Decode into a fresh Segment.
func ParseSegment(frame []byte) (*Segment, error) {
	seg := new(Segment)
	if err := seg.Decode(frame); err != nil {
		return nil, err
	}
	return seg, nil
}

// Decode parses and validates a raw IPv4/TCP frame into s, checking both
// checksums, and allocates nothing for a frame without options: s is the
// caller's (a local one need not reach the heap), its option slices are
// reused, and Payload aliases frame. After an error s holds no usable
// segment.
//
//demux:hotpath
func (s *Segment) Decode(frame []byte) error {
	n, err := s.IP.Unmarshal(frame)
	if err != nil {
		return err
	}
	if s.IP.Protocol != protoTCP {
		return ErrNotTCP
	}
	if s.IP.IsFragment() {
		return ErrFragmented
	}
	body := frame[n:s.IP.TotalLen]
	if !VerifyTCPChecksum(s.IP.Src, s.IP.Dst, body) {
		return ErrTCPBadChecksum
	}
	m, err := s.TCP.Unmarshal(body)
	if err != nil {
		return err
	}
	s.Payload = body[m:]
	return nil
}

// Tuple returns the segment's demultiplexing tuple.
func (s *Segment) Tuple() Tuple {
	return Tuple{
		SrcAddr: s.IP.Src, DstAddr: s.IP.Dst,
		SrcPort: s.TCP.SrcPort, DstPort: s.TCP.DstPort,
	}
}

// ExtractTuple pulls the demultiplexing tuple out of a raw frame without
// fully parsing or validating it — the fast path a receive interrupt would
// take before PCB lookup. It validates only what it must to find the ports:
// version, IHL, protocol, and length. It performs no allocation.
func ExtractTuple(frame []byte) (Tuple, error) {
	var t Tuple
	if len(frame) < IPv4HeaderLen {
		return t, ErrIPv4Truncated
	}
	if frame[0]>>4 != ipv4Version {
		return t, ErrIPv4Version
	}
	hlen := int(frame[0]&0x0f) * 4
	if hlen < IPv4HeaderLen {
		return t, ErrIPv4BadIHL
	}
	if frame[9] != protoTCP {
		return t, ErrNotTCP
	}
	// A non-first fragment has payload bytes, not a TCP header, where the
	// ports would be read; a first fragment (MF set) is incomplete. Either
	// way the datagram must be reassembled before demultiplexing.
	if ff := getU16(frame[6:]); ff&(ipFlagMF<<13|0x1fff) != 0 {
		return t, ErrFragmented
	}
	if len(frame) < hlen+4 { // need at least the TCP port words
		return t, ErrTCPTruncated
	}
	copy(t.SrcAddr[:], frame[12:16])
	copy(t.DstAddr[:], frame[16:20])
	t.SrcPort = getU16(frame[hlen:])
	t.DstPort = getU16(frame[hlen+2:])
	return t, nil
}
