package core

import "sort"

// MapDemux is the modern-stack baseline: a single global hash table (Go's
// built-in map) over exact connection keys, with a separate listener list —
// essentially the Sequent design taken to its limit of "enough chains that
// every chain holds one PCB". Each lookup is accounted as examining one
// PCB, the asymptote the paper's Eq. 22 approaches as H grows.
//
// It exists so the benches can show where thirty years of hashing ended up
// relative to the paper's 19-chain default.
type MapDemux struct {
	byKey  map[Key]*PCB
	listen list
	stats  Stats
}

// NewMapDemux returns an empty global-hash-table demultiplexer.
func NewMapDemux() *MapDemux {
	return &MapDemux{byKey: make(map[Key]*PCB)}
}

// Name implements Demuxer.
func (d *MapDemux) Name() string { return "map" }

// Insert implements Demuxer.
func (d *MapDemux) Insert(p *PCB) error {
	if p.Key.IsWildcard() {
		if d.listen.containsExact(p.Key) {
			return ErrDuplicateKey
		}
		d.listen.pushFront(p)
		return nil
	}
	if _, dup := d.byKey[p.Key]; dup {
		return ErrDuplicateKey
	}
	d.byKey[p.Key] = p
	return nil
}

// Remove implements Demuxer.
func (d *MapDemux) Remove(k Key) bool {
	if k.IsWildcard() {
		return d.listen.remove(k) != nil
	}
	if _, ok := d.byKey[k]; !ok {
		return false
	}
	delete(d.byKey, k)
	return true
}

// Lookup implements Demuxer.
//
//demux:hotpath
func (d *MapDemux) Lookup(k Key, _ Direction) Result {
	if p, ok := d.byKey[k]; ok {
		r := Result{PCB: p, Examined: 1}
		d.stats.record(r)
		return r
	}
	best, examined, _ := d.listen.scan(k)
	r := Result{PCB: best, Examined: 1 + examined, Wildcard: best != nil}
	d.stats.record(r)
	return r
}

// NotifySend implements Demuxer; the hash table ignores transmissions.
func (d *MapDemux) NotifySend(*PCB) {}

// Len implements Demuxer.
func (d *MapDemux) Len() int { return len(d.byKey) + len(d.listen) }

// Stats implements Demuxer.
func (d *MapDemux) Stats() *Stats { return &d.stats }

// Walk implements Demuxer. The built-in map iterates in runtime-random
// order, so Walk sorts the connection keys (Key.Compare) before visiting:
// dumps and figures that walk the table see one canonical order —
// connections by key, then listeners in insertion order.
func (d *MapDemux) Walk(fn func(*PCB) bool) {
	keys := make([]Key, 0, len(d.byKey))
	for k := range d.byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Compare(keys[j]) < 0 })
	for _, k := range keys {
		if !fn(d.byKey[k]) {
			return
		}
	}
	d.listen.walk(fn)
}
