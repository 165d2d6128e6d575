package wire

import (
	"errors"
	"fmt"
)

// Structural constants for the TCP header.
const (
	// TCPHeaderLen is the length of a TCP header without options.
	TCPHeaderLen = 20
	// TCPMaxHeaderLen is the largest encodable TCP header (offset=15).
	TCPMaxHeaderLen = 60
)

// TCP header flag bits.
const (
	FlagFIN uint8 = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
)

// Errors reported by the TCP codec.
var (
	ErrTCPTruncated   = errors.New("wire: buffer shorter than TCP header")
	ErrTCPBadOffset   = errors.New("wire: TCP data offset field invalid")
	ErrTCPBadOptions  = errors.New("wire: TCP options malformed")
	ErrTCPBadChecksum = errors.New("wire: TCP checksum mismatch")
)

// TCPHeader is the parsed form of a TCP header.
type TCPHeader struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   uint8
	Window  uint16
	Urgent  uint16
	Options []TCPOption
}

// TCP option kinds used by this repo.
const (
	OptEnd          = 0
	OptNOP          = 1
	OptMSS          = 2
	OptWindowScale  = 3
	OptSACKPermit   = 4
	OptTimestamps   = 8
	optMSSLen       = 4
	optWScaleLen    = 3
	optSACKPermLen  = 2
	optTimestampLen = 10
)

// TCPOption is a single TCP option in kind/data form. NOP and End are
// handled by the codec and never appear in the parsed list.
type TCPOption struct {
	Kind uint8
	Data []byte
}

// FlagNames renders the flag bits for diagnostics, e.g. "SYN|ACK".
func FlagNames(f uint8) string {
	names := []struct {
		bit  uint8
		name string
	}{
		{FlagFIN, "FIN"}, {FlagSYN, "SYN"}, {FlagRST, "RST"},
		{FlagPSH, "PSH"}, {FlagACK, "ACK"}, {FlagURG, "URG"},
	}
	out := ""
	for _, n := range names {
		if f&n.bit != 0 {
			if out != "" {
				out += "|"
			}
			out += n.name
		}
	}
	if out == "" {
		out = "none"
	}
	return out
}

// optionsWireLen returns the padded wire length of the options.
func (h *TCPHeader) optionsWireLen() (int, error) {
	raw := 0
	for _, o := range h.Options {
		switch o.Kind {
		case OptEnd, OptNOP:
			return 0, fmt.Errorf("%w: explicit kind %d not allowed", ErrTCPBadOptions, o.Kind)
		default:
			raw += 2 + len(o.Data)
		}
	}
	padded := (raw + 3) &^ 3
	if TCPHeaderLen+padded > TCPMaxHeaderLen {
		return 0, ErrTCPBadOffset
	}
	return padded, nil
}

// HeaderLen returns the encoded header length in bytes, or an error if the
// options do not fit.
func (h *TCPHeader) HeaderLen() (int, error) {
	opts, err := h.optionsWireLen()
	if err != nil {
		return 0, err
	}
	return TCPHeaderLen + opts, nil
}

// Marshal appends the encoded header to buf and returns the extended slice.
// The checksum field is left zero; compute it with TCPChecksum over the
// full segment once the payload is appended.
func (h *TCPHeader) Marshal(buf []byte) ([]byte, error) {
	hlen, err := h.HeaderLen()
	if err != nil {
		return nil, err
	}
	start := len(buf)
	buf = append(buf, make([]byte, hlen)...)
	h.put(buf[start:])
	return buf, nil
}

// put encodes the header, checksum field zero, into b, which is exactly
// HeaderLen() zeroed bytes.
func (h *TCPHeader) put(b []byte) {
	putU16(b[0:], h.SrcPort)
	putU16(b[2:], h.DstPort)
	putU32(b[4:], h.Seq)
	putU32(b[8:], h.Ack)
	b[12] = uint8(len(b)/4) << 4
	b[13] = h.Flags
	putU16(b[14:], h.Window)
	putU16(b[18:], h.Urgent)
	p := b[TCPHeaderLen:]
	off := 0
	for _, o := range h.Options {
		p[off] = o.Kind
		p[off+1] = uint8(2 + len(o.Data))
		copy(p[off+2:], o.Data)
		off += 2 + len(o.Data)
	}
	// Remaining bytes are already zero = OptEnd padding.
}

// Unmarshal parses a TCP header from b, returning the header length
// consumed. Options are decoded into the Options slice; NOP and End-of-list
// padding is skipped.
//
//demux:hotpath
func (h *TCPHeader) Unmarshal(b []byte) (int, error) {
	if len(b) < TCPHeaderLen {
		return 0, ErrTCPTruncated
	}
	hlen := int(b[12]>>4) * 4
	if hlen < TCPHeaderLen {
		return 0, ErrTCPBadOffset
	}
	if len(b) < hlen {
		return 0, ErrTCPTruncated
	}
	h.SrcPort = getU16(b[0:])
	h.DstPort = getU16(b[2:])
	h.Seq = getU32(b[4:])
	h.Ack = getU32(b[8:])
	h.Flags = b[13]
	h.Window = getU16(b[14:])
	h.Urgent = getU16(b[18:])
	h.Options = h.Options[:0]
	opts := b[TCPHeaderLen:hlen]
	for len(opts) > 0 {
		switch opts[0] {
		case OptEnd:
			opts = nil
		case OptNOP:
			opts = opts[1:]
		default:
			if len(opts) < 2 {
				return 0, ErrTCPBadOptions
			}
			olen := int(opts[1])
			if olen < 2 || olen > len(opts) {
				return 0, ErrTCPBadOptions
			}
			// An option's data is copied out of b, so a parsed header
			// outlives its frame; a header without options costs nothing.
			data := append([]byte(nil), opts[2:olen]...)                        //demux:allowalloc only when the header carries an option
			h.Options = append(h.Options, TCPOption{Kind: opts[0], Data: data}) //demux:allowalloc only when the header carries an option, until h has the capacity
			opts = opts[olen:]
		}
	}
	return hlen, nil
}

// MSSOption builds a maximum-segment-size option.
func MSSOption(mss uint16) TCPOption {
	data := make([]byte, 2)
	putU16(data, mss)
	return TCPOption{Kind: OptMSS, Data: data}
}
