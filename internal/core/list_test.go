package core

import (
	"errors"
	"testing"
	"unsafe"

	"tcpdemux/internal/hashfn"
	"tcpdemux/internal/rng"
)

// TestEntryAndPCBBudget pins the memory the entry array is paid for with:
// a list entry is 24 bytes, a fingerprint lane beside it 2 bytes, and a
// PCB is at most 40 bytes (it is the first field of the engine's 64-byte
// Conn), so a field added later cannot silently undo any of them.
func TestEntryAndPCBBudget(t *testing.T) {
	if s := unsafe.Sizeof(entry{}); s != 24 {
		t.Fatalf("entry is %d bytes, want 24", s)
	}
	var ll laneList
	for i := 0; i < 2500; i++ {
		ll.pushFront(NewPCB(Key{RemotePort: uint16(i)}))
	}
	if slots := (cap(ll.list) + 7) &^ 7; cap(ll.fp) != 2*slots {
		t.Fatalf("the lanes of %d entry slots are %d bytes, want 2 a slot", slots, cap(ll.fp))
	}
	if s := unsafe.Sizeof(PCB{}); s > 40 {
		t.Fatalf("PCB is %d bytes, want <= 40", s)
	}
}

// TestListGrowth pins how a list's array grows: by a quarter, rounded up
// to the allocator's size class, not append's doubling. A short chain's
// array stays near its length, and the copies over many pushes stay
// linear in the pushes. A laneList's lanes grow with its entries: 2 bytes
// for each entry slot, plus at most a pair's padding, and copied only
// when the entries are.
func TestListGrowth(t *testing.T) {
	var l list
	var ll laneList
	copied, lanesCopied := 0, 0
	for i := 0; i < 10000; i++ {
		before, lanesBefore := cap(l), len(ll.fp)
		p := NewPCB(Key{RemotePort: uint16(i)})
		l.pushFront(p)
		ll.pushFront(p)
		if cap(l) != before {
			copied += i
		}
		if len(ll.fp) != lanesBefore {
			lanesCopied += lanesBefore / 2
		}
		bytes := uintptr(cap(l)) * unsafe.Sizeof(entry{})
		if (len(l) == 3 && bytes > 80) || (len(l) == 5 && bytes > 144) {
			t.Fatalf("a %d-entry list's array is %d bytes", len(l), bytes)
		}
		if lanes := cap(ll.fp); lanes > 2*cap(ll.list)+14 {
			t.Fatalf("a %d-slot list's lanes are %d bytes, want <= %d", cap(ll.list), lanes, 2*cap(ll.list)+14)
		}
	}
	if copied > 6*len(l) {
		t.Fatalf("%d pushes copied %d entries, want <= %d", len(l), copied, 6*len(l))
	}
	if lanesCopied > 6*len(l)+8 {
		t.Fatalf("%d pushes copied %d lanes, want <= %d", len(l), lanesCopied, 6*len(l)+8)
	}
}

// refList is an independent linked-list in_pcblookup: front insertion,
// the walk stops at the first exact Match, the first best wildcard wins,
// and with mtf set an exact match is spliced to the front.
type refList struct {
	head *refNode
	mtf  bool
}

type refNode struct {
	pcb  *PCB
	next *refNode
}

func (l *refList) lookup(k Key) (best *PCB, examined int, exact bool) {
	bestScore := -1
	for pp := &l.head; *pp != nil; pp = &(*pp).next {
		n := *pp
		examined++
		score := Match(n.pcb.Key, k)
		if score == exactScore {
			if l.mtf && n != l.head {
				*pp, n.next, l.head = n.next, l.head, n
			}
			return n.pcb, examined, true
		}
		if score > bestScore {
			bestScore, best = score, n.pcb
		}
	}
	return best, examined, false
}

func (l *refList) remove(k Key) *PCB {
	for pp := &l.head; *pp != nil; pp = &(*pp).next {
		if n := *pp; n.pcb.Key == k {
			*pp = n.next
			return n.pcb
		}
	}
	return nil
}

func (l *refList) walk(fn func(*PCB)) {
	for n := l.head; n != nil; n = n.next {
		fn(n.pcb)
	}
}

// refTable arranges refLists as one discipline does: a single list (bsd,
// mtf, sr) or hash chains beside a listen list (sequent, mtf-hash), with
// a one-entry cache per list unless the lists move to front, and sr's
// send-side cache.
type refTable struct {
	chains []refList
	caches []*PCB
	listen *refList
	sent   *PCB
	sr     bool
}

func newRefTable(chains int, mtf, hashed bool) *refTable {
	t := &refTable{chains: make([]refList, chains)}
	for i := range t.chains {
		t.chains[i].mtf = mtf
	}
	if !mtf {
		t.caches = make([]*PCB, chains)
	}
	if hashed {
		t.listen = &refList{}
	}
	return t
}

func (t *refTable) home(k Key) int {
	return hashfn.ChainIndex(hashfn.Multiplicative{}.Hash(k.Tuple()), len(t.chains))
}

func (t *refTable) listFor(k Key) *refList {
	if t.listen != nil && k.IsWildcard() {
		return t.listen
	}
	return &t.chains[t.home(k)]
}

func (t *refTable) walk(fn func(*PCB)) {
	for i := range t.chains {
		t.chains[i].walk(fn)
	}
	if t.listen != nil {
		t.listen.walk(fn)
	}
}

func (t *refTable) insert(p *PCB) error {
	l := t.listFor(p.Key)
	for n := l.head; n != nil; n = n.next {
		if n.pcb.Key == p.Key {
			return ErrDuplicateKey
		}
	}
	l.head = &refNode{pcb: p, next: l.head}
	return nil
}

func (t *refTable) remove(k Key) bool {
	p := t.listFor(k).remove(k)
	if p == nil {
		return false
	}
	for i := range t.caches {
		if t.caches[i] == p {
			t.caches[i] = nil
		}
	}
	if t.sent == p {
		t.sent = nil
	}
	return true
}

func (t *refTable) lookup(k Key, dir Direction) Result {
	var r Result
	i := t.home(k)
	var probes [2]*PCB
	if t.caches != nil {
		probes[0] = t.caches[i]
	}
	if t.sr {
		probes[1] = t.sent
		if dir == DirAck {
			probes[0], probes[1] = probes[1], probes[0]
		}
	}
	for _, c := range probes {
		if c == nil {
			continue
		}
		r.Examined++
		if Match(c.Key, k) == exactScore {
			t.caches[i] = c
			return Result{PCB: c, Examined: r.Examined, CacheHit: true}
		}
	}
	best, examined, exact := t.chains[i].lookup(k)
	r.Examined += examined
	if exact {
		if t.caches != nil {
			t.caches[i] = best
		}
		r.PCB = best
		return r
	}
	if t.listen != nil {
		best, examined, _ = t.listen.lookup(k)
		r.Examined += examined
	}
	r.PCB, r.Wildcard = best, best != nil
	return r
}

// churnKey draws a key from a small space, so inserts collide, removes
// hit, and every chain holds several PCBs.
func churnKey(src *rng.Source) Key {
	return Key{
		LocalAddr:  addr(10, 0, 0, byte(1+src.Intn(2))),
		LocalPort:  uint16(80 + src.Intn(2)),
		RemoteAddr: addr(192, 168, 0, byte(1+src.Intn(8))),
		RemotePort: uint16(1000 + src.Intn(8)),
	}
}

// churnListenKey draws a listener key of any specificity: local address
// or not, remote address or not, remote port always zero.
func churnListenKey(src *rng.Source) Key {
	k := churnKey(src)
	k.RemotePort = 0
	if src.Intn(2) == 0 {
		k.LocalAddr = zeroAddr
	}
	if src.Intn(2) == 0 {
		k.RemoteAddr = zeroAddr
	}
	return k
}

// TestListDisciplinesMatchReference drives every list-based discipline
// beside refTable through churnAgainstReference.
func TestListDisciplinesMatchReference(t *testing.T) {
	cases := []struct {
		d   Demuxer
		ref *refTable
	}{
		{NewBSDList(), newRefTable(1, false, false)},
		{NewMTFList(), newRefTable(1, true, false)},
		{NewSRCache(), newRefTable(1, false, false)},
		{NewSequentHash(1, nil), newRefTable(1, false, true)},
		{NewSequentHash(19, nil), newRefTable(19, false, true)},
		{NewMTFHash(19, nil), newRefTable(19, true, true)},
	}
	cases[2].ref.sr = true
	for _, c := range cases {
		t.Run(c.d.Name(), func(t *testing.T) {
			churnAgainstReference(t, c.d, c.ref, churnKey, churnListenKey, func(int) {})
		})
	}
}

// churnAgainstReference drives d beside ref through seeded churn over the
// keys draw and listen return — listeners, duplicate inserts, removes,
// NotifySend, and packet keys with a zero remote port or address — and
// compares every Result field, Len, and the Walk order after every step,
// then calls check.
func churnAgainstReference(t *testing.T, d Demuxer, ref *refTable, draw, listen func(*rng.Source) Key, check func(step int)) {
	t.Helper()
	src := rng.New(32)
	var got, want []*PCB
	for step := 0; step < 20000; step++ {
		switch op := src.Intn(10); {
		case op < 2:
			p := NewPCB(draw(src))
			if op == 1 && src.Intn(4) == 0 {
				p = NewListenPCB(listen(src))
			}
			if g, w := d.Insert(p), ref.insert(p); !errors.Is(g, w) {
				t.Fatalf("step %d: Insert(%v) = %v, reference %v", step, p.Key, g, w)
			}
		case op < 4:
			k := draw(src)
			if src.Intn(4) == 0 {
				k = listen(src)
			}
			if g, w := d.Remove(k), ref.remove(k); g != w {
				t.Fatalf("step %d: Remove(%v) = %v, reference %v", step, k, g, w)
			}
		case op < 5:
			want = want[:0]
			ref.walk(func(p *PCB) { want = append(want, p) })
			if len(want) > 0 {
				p := want[src.Intn(len(want))]
				d.NotifySend(p)
				if ref.sr {
					ref.sent = p
				}
			}
		default:
			k := draw(src)
			if src.Intn(3) == 0 {
				k.RemotePort = 0
			}
			if src.Intn(3) == 0 {
				k.RemoteAddr = zeroAddr
			}
			dir := Direction(src.Intn(2))
			if g, w := d.Lookup(k, dir), ref.lookup(k, dir); g != w {
				t.Fatalf("step %d: Lookup(%v, %v) = %+v, reference %+v", step, k, dir, g, w)
			}
		}
		got, want = got[:0], want[:0]
		d.Walk(func(p *PCB) bool { got = append(got, p); return true })
		ref.walk(func(p *PCB) { want = append(want, p) })
		if d.Len() != len(want) || len(got) != len(want) {
			t.Fatalf("step %d: Len %d, Walk %d PCBs, reference %d", step, d.Len(), len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: Walk[%d] = %v, reference %v", step, i, got[i], want[i])
			}
		}
		check(step)
	}
}
