package core

// BSDList is the stock BSD demultiplexer of paper §3.1: one linear list of
// PCBs searched front to back, with a single-entry cache referencing the
// last PCB found (the 4.3-Reno optimization from Van Jacobson's work).
//
// Under packet-train traffic the cache hit rate approaches one; under
// TPC/A traffic it collapses to 1/N and the expected cost is
// C_BSD(N) = 1 + (N²-1)/2N (Eq. 1) — 1,001 PCB examinations per packet at
// 2,000 users.
type BSDList struct {
	pcbs  laneList
	cache *PCB
	stats Stats
}

// NewBSDList returns an empty BSD demultiplexer.
func NewBSDList() *BSDList { return &BSDList{} }

// Name implements Demuxer.
func (d *BSDList) Name() string { return "bsd" }

// Insert implements Demuxer. New PCBs go to the front of the list.
func (d *BSDList) Insert(p *PCB) error {
	if d.pcbs.containsExact(p.Key) {
		return ErrDuplicateKey
	}
	d.pcbs.pushFront(p)
	return nil
}

// Remove implements Demuxer. A removed PCB is also evicted from the cache
// so a stale pointer can never be returned.
func (d *BSDList) Remove(k Key) bool {
	p := d.pcbs.remove(k)
	if p == nil {
		return false
	}
	if d.cache == p {
		d.cache = nil
	}
	return true
}

// Lookup implements Demuxer: one cache probe, then a linear scan.
//
//demux:hotpath
func (d *BSDList) Lookup(k Key, _ Direction) Result {
	var r Result
	if d.cache != nil {
		r.Examined++
		if Match(d.cache.Key, k) == exactScore {
			r.PCB = d.cache
			r.CacheHit = true
			d.stats.record(r)
			return r
		}
	}
	best, examined, exact := d.pcbs.scan(k)
	r.Examined += examined
	r.PCB = best
	r.Wildcard = best != nil && !exact
	if exact {
		d.cache = best
	}
	d.stats.record(r)
	return r
}

// NotifySend implements Demuxer; the BSD algorithm ignores transmissions.
func (d *BSDList) NotifySend(*PCB) {}

// Len implements Demuxer.
func (d *BSDList) Len() int { return len(d.pcbs.list) }

// Stats implements Demuxer.
func (d *BSDList) Stats() *Stats { return &d.stats }

// Walk implements Demuxer.
func (d *BSDList) Walk(fn func(*PCB) bool) {
	d.pcbs.walk(fn)
}
