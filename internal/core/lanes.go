package core

import "encoding/binary"

// laneList is the list the three whole-table disciplines walk: BSDList,
// MTFList and SRCache. Beside each entry it keeps a 16-bit fingerprint of
// the entry's key, stored little-endian in a byte array so that it reads
// four to a uint64: entry i is lane i%4 (bits 16·(i%4) up) of word i/4.
// The lanes past the list's end, up to a multiple of eight, are zero. The
// exact scan tests eight entries per two word loads and compares keys
// only in a group where some lane equals the packet's fingerprint. A
// fingerprint only filters: the match is key equality, front first, so a
// scan examines and returns exactly what list's would. Being bytes, the
// lanes move by copy, a memmove of 2 bytes an entry beside the entries'
// 24; held as uint64 words they would need a loop of shifts.
//
// Hash chains and listen lists keep the plain list: they average a few
// entries, and a second slice header in each of a table's chain headers
// would cost more memory than the lanes save time.
type laneList struct {
	list
	fp []byte
}

const (
	// laneOnes has a one in every lane; laneOnes*f repeats f in all four.
	laneOnes = 0x0001_0001_0001_0001
	// laneHigh has the top bit of every lane.
	laneHigh = 0x8000_8000_8000_8000
)

// fingerprint is a 16-bit multiplicative mix of the whole 12-byte key:
// the two addresses form one word, which is multiplied, the ports are
// XORed into the product, and the top 16 bits of a second product are
// the fingerprint. An XOR fold of the key would collide on keys that
// differ in address and port bits together, as tpca.UserKey's do.
func fingerprint(k Key) uint16 {
	const m = 0x9E37_79B9_7F4A_7C15
	a := uint64(binary.LittleEndian.Uint32(k.LocalAddr[:]))<<32 |
		uint64(binary.LittleEndian.Uint32(k.RemoteAddr[:]))
	return uint16((a*m ^ uint64(k.LocalPort)<<16 ^ uint64(k.RemotePort)) * m >> 48)
}

// lane returns entry i's fingerprint.
func (l *laneList) lane(i int) uint16 { return binary.LittleEndian.Uint16(l.fp[2*i:]) }

// setLane stores entry i's fingerprint.
func (l *laneList) setLane(i int, f uint16) { binary.LittleEndian.PutUint16(l.fp[2*i:], f) }

// pushFront inserts a PCB at the front. The lanes grow with the entries,
// to cover the entry array's capacity rounded up to eight.
func (l *laneList) pushFront(p *PCB) {
	n := len(l.list)
	l.list.pushFront(p)
	if size := 2 * ((cap(l.list) + 7) &^ 7); size > len(l.fp) {
		fp := make([]byte, size)
		copy(fp, l.fp)
		l.fp = fp
	}
	l.setLane(n, fingerprint(p.Key))
}

// find returns the index of the entry with exactly key k, searching from
// the front, or -1. Each step XORs two lane words (16 bytes, 8 entries)
// with k's fingerprint repeated in every lane and tests both for a zero
// lane at once: (x-laneOnes)&^x&laneHigh is non-zero exactly when some
// lane of x is zero (a borrow can also flag a lane above a zero one,
// which costs only a compare). A step with a flagged lane compares the
// keys of its eight entries, front first; zero padding lanes past the
// end are never compared.
func (l *laneList) find(k Key) int {
	f := uint64(fingerprint(k)) * laneOnes
	n := len(l.list)
	fp := l.fp[:2*((n+7)&^7)]
	for o := len(fp); o >= 16; o -= 16 {
		step := fp[o-16 : o : o]
		a := binary.LittleEndian.Uint64(step) ^ f
		b := binary.LittleEndian.Uint64(step[8:]) ^ f
		if ((a-laneOnes)&^a|(b-laneOnes)&^b)&laneHigh == 0 {
			continue
		}
		for i := min(o/2, n) - 1; i >= o/2-8; i-- {
			if l.list[i].key == k {
				return i
			}
		}
	}
	return -1
}

// dropLane removes lane i, moving the lanes above it down one; the last
// entry's lane comes out zero.
func (l *laneList) dropLane(i int) {
	n := len(l.list)
	copy(l.fp[2*i:2*n], l.fp[2*i+2:2*n])
	l.setLane(n-1, 0)
}

// remove deletes the entry with exactly key k, returning its PCB.
func (l *laneList) remove(k Key) *PCB {
	i := l.find(k)
	if i < 0 {
		return nil
	}
	l.dropLane(i)
	return l.list.removeAt(i)
}

// toFront moves entry i and its lane to the front, keeping the others in
// order.
func (l *laneList) toFront(i int) {
	f := l.lane(i)
	l.dropLane(i)
	l.setLane(len(l.list)-1, f)
	l.list.toFront(i)
}

// scan is list.scan with the exact case found through the lanes.
func (l *laneList) scan(k Key) (best *PCB, examined int, exact bool) {
	if !k.IsWildcard() {
		if i := l.find(k); i >= 0 {
			return l.list[i].pcb, len(l.list) - i, true
		}
	}
	return l.list.scanMatch(k)
}

// containsExact reports whether a PCB with exactly key k is present.
func (l *laneList) containsExact(k Key) bool { return l.find(k) >= 0 }
