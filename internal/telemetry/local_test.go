package telemetry

import (
	"sync"
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/hashfn"
)

// TestLocalDemuxMatchesShared drives the same lookups through a
// LocalDemux and through direct DemuxMetrics.Observe calls, and checks
// the flushed metrics agree exactly — buffering and flushing must not
// change what the histograms hold.
func TestLocalDemuxMatchesShared(t *testing.T) {
	drive := func(d core.Table, observe func(core.Result)) {
		for i := uint32(0); i < 50; i++ {
			_ = d.Insert(core.NewPCB(testKey(i)))
		}
		for i := uint32(0); i < 200; i++ {
			observe(d.Lookup(testKey(i%60), core.DirData)) // mix of hits and misses
		}
	}

	ms := NewDemuxMetrics(NewRegistry(), "x")
	drive(core.NewSequentHash(19, hashfn.Multiplicative{}), ms.Observe)

	ml := NewDemuxMetrics(NewRegistry(), "x")
	ld := InstrumentLocal(core.NewSequentHash(19, hashfn.Multiplicative{}), ml)
	drive(ld, func(core.Result) {})
	ld.Flush()

	s, l := ms.ExaminedSnapshot(), ml.ExaminedSnapshot()
	if s.Count != l.Count || s.Sum != l.Sum || s.Max != l.Max {
		t.Fatalf("local and direct observation disagree: direct %+v local %+v", s, l)
	}
	for i := range s.Bucket {
		if s.Bucket[i] != l.Bucket[i] {
			t.Fatalf("bucket %d: direct %d local %d", i, s.Bucket[i], l.Bucket[i])
		}
	}
	if ms.Hits() != ml.Hits() || ms.Misses() != ml.Misses() {
		t.Fatalf("outcome counts disagree: direct hit=%d miss=%d, local hit=%d miss=%d",
			ms.Hits(), ms.Misses(), ml.Hits(), ml.Misses())
	}
	if ml.Lookups() != 200 {
		t.Fatalf("lookups %d, want 200", ml.Lookups())
	}
}

// TestLocalDemuxFlushClears checks Flush both publishes and resets the
// private buffer, so double-flushing never double-counts.
func TestLocalDemuxFlushClears(t *testing.T) {
	inner := core.NewSequentHash(7, nil)
	r := NewRegistry()
	m := NewDemuxMetrics(r, "x")
	ld := InstrumentLocal(inner, m)
	_ = ld.Insert(core.NewPCB(testKey(1)))
	ld.Lookup(testKey(1), core.DirData)
	ld.Flush()
	ld.Flush()
	if got := m.Lookups(); got != 1 {
		t.Fatalf("double flush double-counted: lookups %d, want 1", got)
	}
	ld.Lookup(testKey(1), core.DirData)
	ld.Flush()
	if got := m.Lookups(); got != 2 {
		t.Fatalf("buffer not reusable after flush: lookups %d, want 2", got)
	}
}

// TestLocalDemuxConcurrentFlush runs one LocalDemux per goroutine over a
// shared inner demuxer (the intended deployment) under the race
// detector, and checks the flushed totals are exact.
func TestLocalDemuxConcurrentFlush(t *testing.T) {
	inner := lockedDemux{inner: core.NewSequentHash(19, hashfn.Multiplicative{}), mu: &sync.Mutex{}}
	for i := uint32(0); i < 20; i++ {
		if err := inner.Insert(core.NewPCB(testKey(i))); err != nil {
			t.Fatal(err)
		}
	}
	r := NewRegistry()
	m := NewDemuxMetrics(r, "x")

	const workers = 8
	const each = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ld := InstrumentLocal(inner, m)
			defer ld.Flush()
			for i := 0; i < each; i++ {
				ld.Lookup(testKey(uint32((w+i)%25)), core.DirData)
			}
		}(w)
	}
	wg.Wait()
	if got := m.Lookups(); got != workers*each {
		t.Fatalf("lookups %d, want %d", got, workers*each)
	}
}

// lockedDemux adapts a plain core.Demuxer into a core.Concurrent for
// the tests above (coarse lock; correctness only).
type lockedDemux struct {
	inner *core.SequentHash
	mu    *sync.Mutex
}

func (d lockedDemux) Name() string { return d.inner.Name() }
func (d lockedDemux) Insert(p *core.PCB) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.inner.Insert(p)
}
func (d lockedDemux) Remove(k core.Key) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.inner.Remove(k)
}
func (d lockedDemux) Lookup(k core.Key, dir core.Direction) core.Result {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.inner.Lookup(k, dir)
}
func (d lockedDemux) NotifySend(p *core.PCB) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.inner.NotifySend(p)
}
func (d lockedDemux) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.inner.Len()
}
func (d lockedDemux) Snapshot() core.Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return *d.inner.Stats()
}
func (d lockedDemux) Walk(fn func(*core.PCB) bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.inner.Walk(fn)
}
