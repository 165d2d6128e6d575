// Package fentry is the hotalloc fixture for flat-table code: packed
// probe-group entries scanned by zero-alloc hot paths.
package fentry

// entry is the packed 24-byte cell: key bytes, hash fingerprint, slab
// reference.
type entry struct {
	key  [12]byte
	hash uint32
	slot uint32
	gen  uint32
}

type table struct {
	entries []entry
	mask    uint32
	hits    uint64
	scratch []uint32
}

// probe is the intended hot-path shape: fingerprint scan over one packed
// window, one counter bump, no allocation.
//
//demux:hotpath
func (t *table) probe(key [12]byte, h uint32) int {
	home := int(h & t.mask)
	w := t.entries[home : home+8]
	for i := range w {
		if w[i].slot != 0 && w[i].hash == h && w[i].key == key {
			t.hits++
			return home + i
		}
	}
	return -1
}

// probeCollecting allocates the match list on the hot path — collection
// belongs in caller-owned scratch.
//
//demux:hotpath
func (t *table) probeCollecting(h uint32) []int {
	hits := make([]int, 0, 8) // want `make allocates`
	home := int(h & t.mask)
	for i := home; i < home+8; i++ {
		if t.entries[i].hash == h {
			hits = append(hits, i) // want `append may grow`
		}
	}
	return hits
}

// sizeScratch grows the pooled hash buffer, waived: the growth is
// amortized across every batch that reuses the scratch.
//
//demux:hotpath
func (t *table) sizeScratch(n int) []uint32 {
	if cap(t.scratch) < n {
		t.scratch = make([]uint32, n) //demux:allowalloc fixture: pooled scratch grows once per size class, then reused
	}
	return t.scratch[:n]
}

// rebuild is unmarked: table growth allocates freely off the hot path.
func rebuild(t *table, size int) {
	t.entries = make([]entry, size+7)
	t.mask = uint32(size - 1)
}
