package flat

import (
	"sync"

	"tcpdemux/internal/core"
	"tcpdemux/internal/hashfn"
)

// hopRange is the hopscotch neighborhood H: every key lives within H
// slots of its home slot, so a lookup scans one contiguous H-entry
// window — at 24 bytes per entry, 192 bytes spanning at most four cache
// lines, usually two or three.
const hopRange = 8

// Hopscotch is an open-addressing demultiplexer with hopscotch hashing
// [Herlihy, Shavit & Tzafrir 2008]: linear probing's contiguous scan,
// but with every key guaranteed to sit within hopRange slots of its
// home. Insertion displaces entries backward toward their own homes to
// open a slot inside the neighborhood; when it cannot, the table doubles.
// Lookups therefore probe exactly one bounded window regardless of load,
// which is what makes the batch prefetch pipeline effective: one
// prefetch covers everything packet i+k's resolution will touch.
//
// The table slice carries hopRange-1 spillover slots past the last home
// so no window ever wraps — windows are always one contiguous range.
//
// Not safe for concurrent use; wrap in Concurrent for that.
type Hopscotch struct {
	hash hashfn.Func
	// mult short-circuits hashOf to the concrete (inlinable)
	// multiplicative hash when hash is the default, as in the rcu table:
	// an interface call per packet is a real fraction of a one-group
	// probe.
	mult bool

	entries []entry // len = size + hopRange - 1
	mask    uint32  // size - 1; home = hash & mask
	size    int
	n       int // occupied table cells (listeners excluded)

	slab   slab
	listen []lentry

	depth int // prefetch pipeline depth k; 0 disables
	stats core.Stats

	// scratch pools the per-batch hash buffer and prefetch sink so
	// concurrent readers of the Concurrent wrapper never share one.
	scratch sync.Pool
}

// NewHopscotch builds a hopscotch demultiplexer sized for about capacity
// connections (a small default if <= 0) and the given hash function
// (multiplicative if nil). The table grows itself; capacity is only the
// initial sizing hint.
func NewHopscotch(capacity int, fn hashfn.Func) *Hopscotch {
	if fn == nil {
		fn = hashfn.Multiplicative{}
	}
	t := &Hopscotch{hash: fn, depth: DefaultPrefetchDepth}
	_, t.mult = fn.(hashfn.Multiplicative)
	t.sizeTo(roundPow2(capacity, 32))
	return t
}

// sizeTo (re)allocates the table at the given power-of-two size.
func (t *Hopscotch) sizeTo(size int) {
	t.size = size
	t.mask = uint32(size - 1)
	t.entries = make([]entry, size+hopRange-1)
}

// Name implements core.Demuxer.
func (t *Hopscotch) Name() string { return "flat-hopscotch" }

// window returns the probe window for hash h: the hopRange contiguous
// entries starting at h's home slot. Every live key with this home is in
// here — the hopscotch invariant.
//
//demux:hotpath
func (t *Hopscotch) window(h uint32) []entry {
	home := int(h & t.mask)
	return t.entries[home : home+hopRange : home+hopRange]
}

// lookupHashed resolves one packet key whose hash is already computed —
// the shared probe behind the per-packet and batched paths, so their
// results and examination accounting are identical by construction.
// Occupied cells probed count as examined (empty cells are free to skip
// over — no PCB is touched); a full-window miss falls through to the
// listener scan.
//
//demux:hotpath
func (t *Hopscotch) lookupHashed(k core.Key, h uint32) core.Result {
	var r core.Result
	w := t.window(h)
	for i := range w {
		if w[i].slot == 0 {
			continue
		}
		r.Examined++
		if w[i].hash == h && w[i].key == k {
			r.PCB = t.slab.at(w[i].slot-1, w[i].gen)
			return r
		}
	}
	t.listenScan(k, &r)
	return r
}

// Lookup implements core.Demuxer.
//
//demux:hotpath
func (t *Hopscotch) Lookup(k core.Key, _ core.Direction) core.Result {
	r := t.lookupHashed(k, t.hashOf(k))
	t.stats.Record(r)
	return r
}

// LookupRaw is Lookup without the statistics fold: a pure read of the
// table, safe for concurrent readers while no writer runs — what the
// Concurrent wrapper's read lock guarantees.
//
//demux:hotpath
func (t *Hopscotch) LookupRaw(k core.Key, _ core.Direction) core.Result {
	return t.lookupHashed(k, t.hashOf(k))
}

// Insert implements core.Demuxer. Wildcard keys register listeners;
// exact keys are placed within their home window, displacing neighbors
// or doubling the table as needed.
func (t *Hopscotch) Insert(p *core.PCB) error {
	if p.Key.IsWildcard() {
		return t.listenInsert(p)
	}
	h := t.hashOf(p.Key)
	w := t.window(h)
	for i := range w {
		if w[i].slot != 0 && w[i].hash == h && w[i].key == p.Key {
			return core.ErrDuplicateKey
		}
	}
	idx, gen := t.slab.alloc(p)
	e := entry{key: p.Key, hash: h, slot: idx + 1, gen: gen}
	// Grow ahead of the load wall: past ~7/8 occupancy displacement
	// chains lengthen and windows fill, which costs lookups (more
	// occupied cells per window) before it costs inserts.
	if 8*(t.n+1) > 7*t.size {
		t.grow()
	}
	for !t.place(e) {
		t.grow()
	}
	t.n++
	return nil
}

// place tries to put e into its home window, hopscotch-displacing
// entries to open a slot if needed. It reports failure (caller grows)
// rather than growing itself so the rebuild path can reuse it.
func (t *Hopscotch) place(e entry) bool {
	home := int(e.hash & t.mask)
	// Find the first free slot at or after home.
	free := -1
	for i := home; i < len(t.entries); i++ {
		if t.entries[i].slot == 0 {
			free = i
			break
		}
	}
	if free < 0 {
		return false
	}
	// Hop the free slot backward until it is inside e's window: find an
	// entry below it whose own window still covers the free slot, move
	// it up, and continue from its old position.
	for free >= home+hopRange {
		moved := false
		for j := free - hopRange + 1; j < free; j++ {
			if t.entries[j].slot == 0 {
				continue
			}
			if int(t.entries[j].hash&t.mask)+hopRange > free {
				t.entries[free] = t.entries[j]
				t.entries[j] = entry{}
				free = j
				moved = true
				break
			}
		}
		if !moved {
			return false
		}
	}
	t.entries[free] = e
	return true
}

// grow doubles the table (again if a pathological rebuild still cannot
// place some entry) and re-places every live entry against the new mask.
// Entries carry their full hash, so no key is rehashed.
func (t *Hopscotch) grow() {
	old := t.entries
	size := t.size
	for {
		size *= 2
		t.sizeTo(size)
		ok := true
		for i := range old {
			if old[i].slot == 0 {
				continue
			}
			if !t.place(old[i]) {
				ok = false
				break
			}
		}
		if ok {
			return
		}
	}
}

// Remove implements core.Demuxer. The emptied cell needs no tombstone —
// lookups scan the whole window regardless — and the PCB's slab cell is
// recycled with its generation bumped.
func (t *Hopscotch) Remove(k core.Key) bool {
	if k.IsWildcard() {
		return t.listenRemove(k)
	}
	h := t.hashOf(k)
	home := int(h & t.mask)
	for i := home; i < home+hopRange; i++ {
		if t.entries[i].slot != 0 && t.entries[i].hash == h && t.entries[i].key == k {
			t.slab.release(t.entries[i].slot - 1)
			t.entries[i] = entry{}
			t.n--
			return true
		}
	}
	return false
}

// Walk implements core.Demuxer: table cells in slot order, then
// listeners — deterministic for a given operation history.
func (t *Hopscotch) Walk(fn func(*core.PCB) bool) {
	for i := range t.entries {
		if t.entries[i].slot == 0 {
			continue
		}
		if p := t.slab.at(t.entries[i].slot-1, t.entries[i].gen); p != nil {
			if !fn(p) {
				return
			}
		}
	}
	t.listenWalk(fn)
}

// TableSize returns the current home-slot count (power of two), exposed
// for the cache-model estimator and tests.
func (t *Hopscotch) TableSize() int { return t.size }

func init() {
	core.Register("flat-hopscotch", func(c core.Config) core.Demuxer {
		return NewHopscotch(0, c.Hash)
	})
}

var (
	_ core.Demuxer = (*Hopscotch)(nil)
	_ core.Batcher = (*Hopscotch)(nil)
)
