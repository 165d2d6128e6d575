// Package flat implements cache-conscious open-addressing demultiplexers:
// the first discipline family in this repository designed around the
// memory hierarchy rather than around the paper's list structures.
//
// The paper's disciplines (§3.1–3.4) and their descendants under
// internal/core, internal/parallel and internal/rcu all resolve a lookup
// by walking a chain — and every chain hop lands on a different cache
// line, so a lookup that examines E PCBs costs ~E cache lines of memory
// traffic. After the synchronization work of the earlier PRs, that memory
// behaviour is the dominant remaining cost (BENCH_parallel.json measures
// the locked Sequent baseline at ~395 mean examined PCBs per lookup at
// 6,000 users over 19 chains). This package removes the pointer chase
// entirely, following the cache-aware forwarding-table layout of Yegorov
// and the pipelined lookup architecture of Jiang et al. (PAPERS.md):
//
//   - Entries are 24-byte fixed-size cells — the 12-byte connection key,
//     its full 32-bit hash as a scan fingerprint, and a generation-checked
//     index into a PCB slab — packed contiguously, so one probe group is
//     one or two sequential cache lines instead of one line per hop, and
//     a scan never dereferences a PCB until the fingerprint and key both
//     match.
//   - Hopscotch keeps every key within a fixed H-slot neighborhood of its
//     home slot, so a lookup scans one bounded contiguous window.
//   - LookupBatch software-pipelines a train: while packet i's probe
//     group is being resolved, the group packet i+k will need is
//     prefetched (portable shim, see prefetch.go), hiding the memory
//     latency the per-packet path pays serially.
//
// Hopscotch implements core.Demuxer (single-goroutine, like the core
// algorithms); Concurrent wraps it in a read-write lock with striped
// statistics and implements core.Concurrent. Both are core.Batchers — the
// only native batch path in the repository, because it is the only one
// the committed benchmarks show winning (BENCH_cache.json). The table
// keeps none of the chained disciplines' one-entry caches: a probe group
// costs about as much as a cache probe would, so Result.CacheHit is
// always false and Stats.Hits stays zero.
//
// Deletions need no tombstones — a lookup scans its fixed neighborhood
// whether or not holes intervene — so a delete just empties the slot and
// returns the PCB's slab cell (generation bumped) to the free list.
//
// A bucketized cuckoo variant lived here until PR 13; hopscotch dominated
// it at every committed operating point (EXPERIMENTS.md EXP-CACHE).
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

// DefaultPrefetchDepth is the batch pipeline depth k: while packet i is
// resolved, packet i+k's probe group is prefetched. Four groups keeps
// the pipeline ahead of a load-to-use latency of a few hundred cycles at
// ~50–100 cycles per resolution without thrashing L1 on short trains.
const DefaultPrefetchDepth = 4

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

// SetPrefetchDepth sets the batch pipeline depth k (clamped at 0): while
// packet i resolves, packet i+k's probe group is prefetched. 0 disables
// the pipeline; results are identical either way.
func (t *Hopscotch) SetPrefetchDepth(k int) {
	if k < 0 {
		k = 0
	}
	t.depth = k
}

// PrefetchDepth returns the current batch pipeline depth.
func (t *Hopscotch) PrefetchDepth() int { return t.depth }

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

// batchScratch is the pooled per-batch state: the precomputed hash of
// every key in the train and the prefetch sink the shim stores into so
// the early loads cannot be optimized away.
type batchScratch struct {
	hash []uint32
	sink uint64
}

// scratchFor fetches (or builds) a scratch sized for n keys.
func (t *Hopscotch) scratchFor(n int) *batchScratch {
	s, _ := t.scratch.Get().(*batchScratch)
	if s == nil {
		s = &batchScratch{}
	}
	if cap(s.hash) < n {
		s.hash = make([]uint32, n)
	}
	s.hash = s.hash[:n]
	return s
}

// releaseScratch returns the scratch to the pool.
func (t *Hopscotch) releaseScratch(s *batchScratch) { t.scratch.Put(s) }

// roundPow2 rounds n up to a power of two, at least min.
func roundPow2(n, min int) int {
	size := min
	for size < n {
		size <<= 1
	}
	return size
}
