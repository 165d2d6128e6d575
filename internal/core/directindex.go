package core

// DirectIndex models the connection-ID approach paper §3.5 contrasts with
// hashing: protocols such as TP4, X.25 and XTP negotiate a small integer
// per connection, carried in every data packet and used to index a PCB
// array directly — no searching at all.
//
// TCP has no connection-ID field, so the demultiplexer cannot read the ID
// out of the segment. DirectIndex therefore exposes two paths:
//
//   - LookupID(id) is the faithful model: a single array index, one PCB
//     examined, exactly what a TP4-style receiver would do.
//   - Lookup(key, dir) satisfies the Demuxer interface for head-to-head
//     harness runs by resolving the key through an auxiliary map *as if*
//     the peer had carried the negotiated ID in the header; its cost is
//     accounted as the one PCB examination the real protocol would pay.
//
// The paper's point — hashing makes this protocol machinery unnecessary —
// is exactly what BenchmarkCombo quantifies against this implementation.
type DirectIndex struct {
	slots  []*PCB
	free   []int // recycled slot indexes
	byKey  map[Key]int
	listen list
	stats  Stats
}

// NewDirectIndex returns an empty connection-ID demultiplexer.
func NewDirectIndex() *DirectIndex {
	return &DirectIndex{byKey: make(map[Key]int)}
}

// Name implements Demuxer.
func (d *DirectIndex) Name() string { return "direct-index" }

// Insert implements Demuxer, negotiating (assigning) a connection ID for
// exact-keyed PCBs; IDOf reports it. Wildcard listeners are kept on a side
// list as they have no connection to identify.
func (d *DirectIndex) Insert(p *PCB) error {
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
	var id int
	if n := len(d.free); n > 0 {
		id = d.free[n-1]
		d.free = d.free[:n-1]
		d.slots[id] = p
	} else {
		id = len(d.slots)
		d.slots = append(d.slots, p)
	}
	d.byKey[p.Key] = id
	return nil
}

// Remove implements Demuxer, releasing the connection ID for reuse.
func (d *DirectIndex) Remove(k Key) bool {
	if k.IsWildcard() {
		return d.listen.remove(k) != nil
	}
	id, ok := d.byKey[k]
	if !ok {
		return false
	}
	d.slots[id] = nil
	d.free = append(d.free, id)
	delete(d.byKey, k)
	return true
}

// IDOf returns the connection ID negotiated for the exact key k, or -1 if
// none is inserted. The ID lives in this table, not in the PCB.
func (d *DirectIndex) IDOf(k Key) int {
	if id, ok := d.byKey[k]; ok {
		return id
	}
	return -1
}

// LookupID is the faithful connection-ID path: index the PCB array.
// It returns a Result with Examined = 1 regardless of population size.
//
//demux:hotpath
func (d *DirectIndex) LookupID(id int) Result {
	r := Result{Examined: 1}
	if id >= 0 && id < len(d.slots) && d.slots[id] != nil {
		r.PCB = d.slots[id]
	}
	d.stats.record(r)
	return r
}

// Lookup implements Demuxer; see the type comment for the accounting
// convention. A key with no established connection falls back to the
// listener list, whose scan is charged at cost like the other algorithms.
//
//demux:hotpath
func (d *DirectIndex) Lookup(k Key, _ Direction) Result {
	if id, ok := d.byKey[k]; ok {
		return d.LookupID(id)
	}
	var r Result
	best, examined, _ := d.listen.scan(k)
	r.Examined = examined
	r.PCB = best
	r.Wildcard = best != nil
	d.stats.record(r)
	return r
}

// NotifySend implements Demuxer; connection IDs ignore transmissions.
func (d *DirectIndex) NotifySend(*PCB) {}

// Len implements Demuxer.
func (d *DirectIndex) Len() int { return len(d.byKey) + len(d.listen) }

// Stats implements Demuxer.
func (d *DirectIndex) Stats() *Stats { return &d.stats }

// Walk implements Demuxer: open connections in ID order, then listeners.
func (d *DirectIndex) Walk(fn func(*PCB) bool) {
	for _, p := range d.slots {
		if p == nil {
			continue
		}
		if !fn(p) {
			return
		}
	}
	d.listen.walk(fn)
}
