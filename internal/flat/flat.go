// Package flat implements cache-conscious open-addressing demultiplexers:
// the first discipline family in this repository designed around the
// memory hierarchy rather than around the paper's list structures.
//
// The paper's disciplines (§3.1–3.4) and their descendants under
// internal/core and internal/parallel all resolve a lookup by walking a
// chain — and every chain hop lands on a different cache line, so a
// lookup that examines E PCBs costs ~E cache lines of memory traffic.
// That memory behaviour is the dominant cost of a chained lookup: sequent
// examines 159 PCBs per lookup at 6,000 connections over 19 chains
// (testdata/golden/EXP-SHARD.txt). This package removes the pointer chase
// entirely, following the cache-aware forwarding-table layout of Yegorov
// (PAPERS.md):
//
//   - Entries are 24-byte fixed-size cells — the 12-byte connection key,
//     its full 32-bit hash as a scan fingerprint, and a generation-checked
//     index into a PCB slab — packed contiguously, so one probe group is
//     one or two sequential cache lines instead of one line per hop, and
//     a scan never dereferences a PCB until the fingerprint and key both
//     match.
//   - Hopscotch keeps every key within a fixed H-slot neighborhood of its
//     home slot, so a lookup scans one bounded contiguous window.
//
// Hopscotch implements core.Demuxer: one goroutine owns it, like the core
// algorithms, and it resolves one key at a time. It keeps none of the
// chained disciplines' one-entry caches: a probe group costs about as
// much as a cache probe would, so Result.CacheHit is always false and
// Stats.Hits stays zero.
//
// Deletions need no tombstones — a lookup scans its fixed neighborhood
// whether or not holes intervene — so a delete just empties the slot and
// returns the PCB's slab cell (generation bumped) to the free list.
//
// The table's win is its layout, not batching, and hopscotch beat a
// bucketized cuckoo layout at every committed operating point
// (EXPERIMENTS.md EXP-CACHE).
package flat

import (
	"unsafe"

	"tcpdemux/internal/core"
	"tcpdemux/internal/hashfn"
)

// entry is one 24-byte cell of an open-addressing table: the connection
// key inlined next to its full 32-bit hash (the scan fingerprint — a
// probe compares one word and touches the 12-byte key only on a
// fingerprint match) and a generation-checked reference into the PCB
// slab. slot is the slab index plus one so the zero entry means an empty
// cell; gen must match the slab cell's current generation, which guards
// a stale reference after the cell is recycled the same way DirectIndex
// (§3.5) guards reused connection IDs.
type entry struct {
	key  core.Key
	hash uint32
	slot uint32 // slab index + 1; 0 = empty cell
	gen  uint32
}

// The 24-byte entry size is load-bearing for the probe-group layout;
// refuse to compile if padding or a key change grows it.
const (
	entryBytes = 24
	_          = uint(entryBytes - unsafe.Sizeof(entry{}))
	_          = uint(unsafe.Sizeof(entry{}) - entryBytes)
)

// slab owns the PCB pointers the table entries index into. Cells are
// recycled through a free list; release bumps the cell's generation so a
// dangling entry written against the old generation can never resolve to
// the new occupant.
type slab struct {
	pcbs []*core.PCB
	gens []uint32
	// free is mutated only by the alloc/release pair (the slabmut role);
	// the lookup path reads pcbs and gens but never the free list.
	free []uint32 //demux:singlewriter(owner=slabmut)
}

// alloc stores p in a free (or fresh) cell and returns its index and
// current generation.
//
//demux:owner(slabmut)
func (s *slab) alloc(p *core.PCB) (idx, gen uint32) {
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
		s.pcbs[idx] = p
		return idx, s.gens[idx]
	}
	s.pcbs = append(s.pcbs, p)
	s.gens = append(s.gens, 0)
	return uint32(len(s.pcbs) - 1), 0
}

// release empties cell idx, advances its generation, and queues it for
// reuse.
//
//demux:owner(slabmut)
func (s *slab) release(idx uint32) {
	s.pcbs[idx] = nil
	s.gens[idx]++
	s.free = append(s.free, idx)
}

// at resolves a generation-checked reference; nil if the cell has been
// recycled since the reference was written.
//
//demux:hotpath
func (s *slab) at(idx, gen uint32) *core.PCB {
	if s.gens[idx] != gen {
		return nil
	}
	return s.pcbs[idx]
}

// lentry is one wildcard listener. Listeners are matched by wildcard
// scoring, not equality, so they live outside the packed tables in a
// small front-inserted slice, exactly as in the chained disciplines.
type lentry struct {
	key core.Key
	pcb *core.PCB
}

// hashOf computes an exact key's full hash, used for slot selection and
// as the entry fingerprint.
//
//demux:hotpath
func (t *Hopscotch) hashOf(k core.Key) uint32 {
	if t.mult {
		return hashfn.Multiplicative{}.Hash(k.Tuple())
	}
	return t.hash.Hash(k.Tuple())
}

// listenInsert registers a wildcard listener, newest first.
func (t *Hopscotch) listenInsert(p *core.PCB) error {
	for i := range t.listen {
		if t.listen[i].key == p.Key {
			return core.ErrDuplicateKey
		}
	}
	t.listen = append(t.listen, lentry{})
	copy(t.listen[1:], t.listen)
	t.listen[0] = lentry{key: p.Key, pcb: p}
	return nil
}

// listenRemove deletes the listener with exactly key k.
func (t *Hopscotch) listenRemove(k core.Key) bool {
	for i := range t.listen {
		if t.listen[i].key == k {
			t.listen = append(t.listen[:i], t.listen[i+1:]...)
			return true
		}
	}
	return false
}

// listenScan finds the best wildcard listener for packet key k after an
// exact-match miss, most specific first-wins, with the same scoring and
// examination accounting as the chained disciplines.
//
//demux:hotpath
func (t *Hopscotch) listenScan(k core.Key, r *core.Result) {
	best := -1
	for i := range t.listen {
		r.Examined++
		if score := core.Match(t.listen[i].key, k); score > best {
			best = score
			r.PCB = t.listen[i].pcb
		}
	}
	r.Wildcard = r.PCB != nil
}

// listenWalk iterates the listeners, newest first, for Walk.
func (t *Hopscotch) listenWalk(fn func(*core.PCB) bool) bool {
	for i := range t.listen {
		if !fn(t.listen[i].pcb) {
			return false
		}
	}
	return true
}

// Stats implements core.Demuxer; the pointer stays live.
func (t *Hopscotch) Stats() *core.Stats { return &t.stats }

// NotifySend implements core.Demuxer; the flat table ignores
// transmissions.
func (t *Hopscotch) NotifySend(*core.PCB) {}

// Len implements core.Demuxer.
func (t *Hopscotch) Len() int { return t.n + len(t.listen) }

// roundPow2 rounds n up to a power of two, at least min.
func roundPow2(n, min int) int {
	size := min
	for size < n {
		size <<= 1
	}
	return size
}
