// Package connid implements the protocol alternative §3.5 weighs against
// hashing: explicit connection identifiers in the packet header, as in
// TP4, X.25 and XTP. Peers negotiate a small integer per connection; data
// packets carry it, and the receiver indexes a PCB array directly —
// "completely eliminating the need to search."
//
// TCP has no such field, so this package grafts one on as a TCP option
// (kind 253, the RFC 4727 experimental codepoint) holding the receiver's
// 32-bit connection ID. The Table type performs the negotiation
// bookkeeping and the O(1) receive path, including a zero-allocation
// option scan straight off the raw frame.
//
// The paper's verdict — hashing is cheap enough to make this machinery
// unnecessary — is exactly what BenchmarkConnID quantifies: the option
// scan plus array index against the hash plus short chain walk.
package connid

import (
	"errors"

	"tcpdemux/internal/core"
	"tcpdemux/internal/wire"
)

// OptKind is the TCP option kind used for the connection ID (experimental
// codepoint per RFC 4727).
const OptKind = 253

// optLen is the wire length of the option: kind, length, 4-byte ID.
const optLen = 6

// Errors reported by the receive path.
var (
	ErrNoID      = errors.New("connid: segment carries no connection-ID option")
	ErrUnknownID = errors.New("connid: no connection with this ID")
)

// Option builds the TCP option carrying id.
func Option(id uint32) wire.TCPOption {
	return wire.TCPOption{
		Kind: OptKind,
		Data: []byte{byte(id >> 24), byte(id >> 16), byte(id >> 8), byte(id)},
	}
}

// FromOptions extracts the connection ID from parsed TCP options.
func FromOptions(opts []wire.TCPOption) (uint32, bool) {
	for _, o := range opts {
		if o.Kind == OptKind && len(o.Data) == 4 {
			return uint32(o.Data[0])<<24 | uint32(o.Data[1])<<16 |
				uint32(o.Data[2])<<8 | uint32(o.Data[3]), true
		}
	}
	return 0, false
}

// ExtractID pulls the connection ID out of a raw IPv4/TCP frame without
// full parsing or validation — the fast path a TP4-style receiver runs
// before touching any PCB. It performs no allocation.
func ExtractID(frame []byte) (uint32, error) {
	if len(frame) < wire.IPv4HeaderLen {
		return 0, wire.ErrIPv4Truncated
	}
	ihl := int(frame[0]&0x0f) * 4
	if frame[0]>>4 != 4 || ihl < wire.IPv4HeaderLen {
		return 0, wire.ErrIPv4Version
	}
	if len(frame) < ihl+wire.TCPHeaderLen {
		return 0, wire.ErrTCPTruncated
	}
	tcp := frame[ihl:]
	off := int(tcp[12]>>4) * 4
	if off < wire.TCPHeaderLen || len(tcp) < off {
		return 0, wire.ErrTCPBadOffset
	}
	opts := tcp[wire.TCPHeaderLen:off]
	for len(opts) > 0 {
		switch opts[0] {
		case 0: // end of list
			return 0, ErrNoID
		case 1: // nop
			opts = opts[1:]
		case OptKind:
			if len(opts) >= optLen && opts[1] == optLen {
				return uint32(opts[2])<<24 | uint32(opts[3])<<16 |
					uint32(opts[4])<<8 | uint32(opts[5]), nil
			}
			return 0, wire.ErrTCPBadOptions
		default:
			if len(opts) < 2 || int(opts[1]) < 2 || int(opts[1]) > len(opts) {
				return 0, wire.ErrTCPBadOptions
			}
			opts = opts[opts[1]:]
		}
	}
	return 0, ErrNoID
}

// Table is the receiver-side connection-ID table: negotiation bookkeeping
// over a core.DirectIndex, which holds each ID (not the PCB). The zero
// value is not usable; call NewTable.
type Table struct {
	di *core.DirectIndex
}

// NewTable returns an empty table.
func NewTable() *Table { return &Table{di: core.NewDirectIndex()} }

// Open registers a new connection (the SYN path, where the tuple must
// still be used) and returns its PCB and the ID the peer must echo in
// every subsequent segment.
func (t *Table) Open(k core.Key) (*core.PCB, uint32, error) {
	pcb := core.NewPCB(k)
	if err := t.di.Insert(pcb); err != nil {
		return nil, 0, err
	}
	return pcb, uint32(t.di.IDOf(k)), nil
}

// Close releases the connection and recycles its ID.
func (t *Table) Close(k core.Key) bool { return t.di.Remove(k) }

// Len returns the number of open connections.
func (t *Table) Len() int { return t.di.Len() }

// Stats exposes the underlying lookup statistics.
func (t *Table) Stats() *core.Stats { return t.di.Stats() }

// DemuxFrame is the full receive path: scan the raw frame for the
// connection-ID option and index the PCB array. Exactly one PCB is
// examined. Frames without the option (e.g. a SYN) fall back to the tuple
// lookup, which for a DirectIndex is also O(1).
func (t *Table) DemuxFrame(frame []byte) (*core.PCB, error) {
	id, err := ExtractID(frame)
	if err == nil {
		r := t.di.LookupID(int(id))
		if r.PCB == nil {
			return nil, ErrUnknownID
		}
		return r.PCB, nil
	}
	if !errors.Is(err, ErrNoID) {
		return nil, err
	}
	tuple, err := wire.ExtractTuple(frame)
	if err != nil {
		return nil, err
	}
	r := t.di.Lookup(core.KeyFromTuple(tuple), core.DirData)
	if r.PCB == nil {
		return nil, ErrUnknownID
	}
	return r.PCB, nil
}
