// Package frag implements IPv4 fragmentation and reassembly (RFC 791).
// Demultiplexing needs it because only the first fragment of a datagram
// carries the TCP ports: the wire package refuses to extract a tuple from
// any fragment, and this package turns fragment streams back into whole
// frames that the normal receive path can handle.
//
// Reassembly state is bounded (a DoS guard) and timed out by an explicit
// caller-driven clock, consistent with the repo's virtual-time simulations.
package frag

import (
	"errors"
	"fmt"

	"tcpdemux/internal/wire"
)

// Limits.
const (
	// maxDatagram is the largest reassembled IP datagram (16-bit total
	// length).
	maxDatagram = 0xffff
	// fragmentUnit is the fragment offset granularity in bytes.
	fragmentUnit = 8
)

// Errors reported by the reassembler.
var (
	ErrTableFull    = errors.New("frag: too many datagrams under reassembly")
	ErrOversize     = errors.New("frag: fragment extends past the 64 KiB datagram limit")
	ErrBadFragment  = errors.New("frag: malformed fragment")
	ErrMTUTooSmall  = errors.New("frag: MTU cannot hold the IP header plus one fragment unit")
	ErrCannotSplit  = errors.New("frag: datagram has DF set")
	ErrNotFragments = errors.New("frag: frame is not a fragment")
)

// key identifies one datagram under reassembly (RFC 791: source,
// destination, protocol, identification).
type key struct {
	src, dst wire.Addr
	id       uint16
	proto    uint8
}

// pending is one partially reassembled datagram.
type pending struct {
	header   wire.IPv4Header // from the offset-0 fragment
	haveHead bool
	buf      []byte
	covered  []bool
	total    int // payload length, -1 until the last fragment arrives
	arrived  float64
}

// complete reports whether all payload bytes are present.
func (p *pending) complete() bool {
	if !p.haveHead || p.total < 0 || len(p.covered) < p.total {
		return false
	}
	for _, c := range p.covered[:p.total] {
		if !c {
			return false
		}
	}
	return true
}

// Reassembler collects fragments until datagrams complete.
type Reassembler struct {
	maxPending int
	table      map[key]*pending
	// Completed and Expired count outcomes.
	Completed uint64
	Expired   uint64
}

// New returns a reassembler holding at most maxPending datagrams
// (64 if maxPending <= 0).
func New(maxPending int) *Reassembler {
	if maxPending <= 0 {
		maxPending = 64
	}
	return &Reassembler{maxPending: maxPending, table: make(map[key]*pending)}
}

// Pending returns the number of datagrams under reassembly.
func (r *Reassembler) Pending() int { return len(r.table) }

// Add consumes one frame at virtual time now. Non-fragments are returned
// unchanged. A fragment is absorbed; when it completes its datagram, the
// rebuilt whole frame is returned. Otherwise Add returns (nil, nil).
func (r *Reassembler) Add(frame []byte, now float64) ([]byte, error) {
	var hdr wire.IPv4Header
	hlen, err := hdr.Unmarshal(frame)
	if err != nil {
		return nil, err
	}
	if !hdr.IsFragment() {
		return frame, nil
	}
	payload := frame[hlen:hdr.TotalLen]
	off := int(hdr.FragOff) * fragmentUnit
	if off+len(payload) > maxDatagram {
		return nil, ErrOversize
	}
	mf := hdr.Flags&0x1 != 0
	if mf && len(payload)%fragmentUnit != 0 {
		// All fragments but the last must be a multiple of 8 bytes.
		return nil, ErrBadFragment
	}

	k := key{src: hdr.Src, dst: hdr.Dst, id: hdr.ID, proto: hdr.Protocol}
	p, ok := r.table[k]
	if !ok {
		if len(r.table) >= r.maxPending {
			return nil, ErrTableFull
		}
		p = &pending{total: -1, arrived: now}
		r.table[k] = p
	}
	if off == 0 {
		p.header = hdr
		p.haveHead = true
	}
	if !mf {
		p.total = off + len(payload)
	}
	if need := off + len(payload); need > len(p.buf) {
		grown := make([]byte, need)
		copy(grown, p.buf)
		p.buf = grown
		coveredGrown := make([]bool, need)
		copy(coveredGrown, p.covered)
		p.covered = coveredGrown
	}
	copy(p.buf[off:], payload)
	for i := off; i < off+len(payload); i++ {
		p.covered[i] = true
	}

	if !p.complete() {
		return nil, nil
	}
	delete(r.table, k)
	r.Completed++
	return rebuild(p)
}

// rebuild serializes the completed datagram back into a frame.
func rebuild(p *pending) ([]byte, error) {
	hdr := p.header
	hdr.Flags &^= 0x1 // clear MF
	hdr.FragOff = 0
	total := hdr.HeaderLen() + p.total
	if total > maxDatagram {
		return nil, ErrOversize
	}
	hdr.TotalLen = uint16(total)
	out, err := hdr.Marshal(make([]byte, 0, total))
	if err != nil {
		return nil, fmt.Errorf("frag: rebuilding header: %w", err)
	}
	return append(out, p.buf[:p.total]...), nil
}

// Reap expires datagrams older than ttl seconds at virtual time now,
// returning how many were dropped (RFC 791's reassembly timer).
func (r *Reassembler) Reap(now, ttl float64) int {
	n := 0
	//demux:orderinvariant each entry is tested and deleted independently; the drop count is commutative
	for k, p := range r.table {
		if now-p.arrived > ttl {
			delete(r.table, k)
			n++
		}
	}
	r.Expired += uint64(n)
	return n
}

// ExpiryDue is the reassembly timer's cadence for a receive path whose
// only clock is its count of delivered frames (the ordinal Add stamps
// fragments with): it reports true on each 512th frame, when the caller
// runs Reap(float64(frames), ExpiryTTL) to abandon any datagram still
// incomplete ExpiryTTL frames after its first fragment. The count must
// advance on every frame, fragment or not — a clock that ticks only on
// fragments lets orphans pin the table through any amount of ordinary
// traffic. Being a pure function of the count, it can be tested before
// taking whatever lock guards the reassembler.
func ExpiryDue(frames uint64) bool { return frames%512 == 0 }

// ExpiryTTL is the frame-count timer's time to live, in frames.
const ExpiryTTL = 4096

// Fragment splits a whole frame into valid fragments no longer than mtu
// bytes each. The original header (with its options) is carried on every
// fragment, as RFC 791 requires for the options this repo models (all
// copied). Frames with DF set are refused.
func Fragment(frame []byte, mtu int) ([][]byte, error) {
	var hdr wire.IPv4Header
	hlen, err := hdr.Unmarshal(frame)
	if err != nil {
		return nil, err
	}
	if hdr.IsFragment() {
		return nil, ErrBadFragment
	}
	if hdr.Flags&0x2 != 0 {
		return nil, ErrCannotSplit
	}
	payload := frame[hlen:hdr.TotalLen]
	if hlen+len(payload) <= mtu {
		return [][]byte{frame}, nil
	}
	per := (mtu - hlen) / fragmentUnit * fragmentUnit
	if per <= 0 {
		return nil, ErrMTUTooSmall
	}
	var out [][]byte
	for off := 0; off < len(payload); off += per {
		end := off + per
		last := end >= len(payload)
		if last {
			end = len(payload)
		}
		fh := hdr
		fh.FragOff = uint16(off / fragmentUnit)
		if !last {
			fh.Flags |= 0x1
		}
		fh.TotalLen = uint16(hlen + end - off)
		frameOut, err := fh.Marshal(make([]byte, 0, int(fh.TotalLen)))
		if err != nil {
			return nil, err
		}
		out = append(out, append(frameOut, payload[off:end]...))
	}
	return out, nil
}
