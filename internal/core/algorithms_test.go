package core

import (
	"testing"

	"tcpdemux/internal/hashfn"
	"tcpdemux/internal/stats"
)

// --- BSD ---------------------------------------------------------------------

func TestBSDCacheHitCostsOne(t *testing.T) {
	d := NewBSDList()
	for i := 0; i < 50; i++ {
		if err := d.Insert(NewPCB(connKey(i))); err != nil {
			t.Fatal(err)
		}
	}
	d.Lookup(connKey(25), DirData) // prime the cache
	r := d.Lookup(connKey(25), DirData)
	if !r.CacheHit || r.Examined != 1 {
		t.Fatalf("cached lookup: hit=%v examined=%d", r.CacheHit, r.Examined)
	}
}

func TestBSDMissCostIsCachePlusPosition(t *testing.T) {
	d := NewBSDList()
	// Insert keys 0..9; head insertion puts key 9 first.
	for i := 0; i < 10; i++ {
		if err := d.Insert(NewPCB(connKey(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Prime cache with key 9 (position 1).
	d.Lookup(connKey(9), DirData)
	// Key 0 sits at position 10; with the cache probe that is 11 examinations.
	r := d.Lookup(connKey(0), DirData)
	if r.CacheHit || r.Examined != 11 {
		t.Fatalf("miss cost: hit=%v examined=%d, want 11", r.CacheHit, r.Examined)
	}
}

func TestBSDNoCacheProbeWhenEmptyCache(t *testing.T) {
	d := NewBSDList()
	if err := d.Insert(NewPCB(connKey(0))); err != nil {
		t.Fatal(err)
	}
	r := d.Lookup(connKey(0), DirData)
	if r.Examined != 1 || r.CacheHit {
		t.Fatalf("first lookup: examined=%d hit=%v", r.Examined, r.CacheHit)
	}
}

func TestBSDRemoveEvictsCache(t *testing.T) {
	d := NewBSDList()
	p := NewPCB(connKey(0))
	if err := d.Insert(p); err != nil {
		t.Fatal(err)
	}
	d.Lookup(p.Key, DirData) // cache p
	d.Remove(p.Key)
	if r := d.Lookup(p.Key, DirData); r.PCB != nil {
		t.Fatal("stale cache entry returned after removal")
	}
}

// --- MTF ---------------------------------------------------------------------

func TestMTFMovesToFront(t *testing.T) {
	d := NewMTFList()
	for i := 0; i < 10; i++ {
		if err := d.Insert(NewPCB(connKey(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Key 0 is at position 10.
	if r := d.Lookup(connKey(0), DirData); r.Examined != 10 {
		t.Fatalf("first lookup examined %d, want 10", r.Examined)
	}
	// Now it must be at the front.
	if r := d.Lookup(connKey(0), DirData); r.Examined != 1 {
		t.Fatalf("post-MTF lookup examined %d, want 1", r.Examined)
	}
	// And the displaced former head is at position 2.
	if r := d.Lookup(connKey(9), DirData); r.Examined != 2 {
		t.Fatalf("former head examined %d, want 2", r.Examined)
	}
}

func TestMTFPreservesMembership(t *testing.T) {
	d := NewMTFList()
	const n = 30
	for i := 0; i < n; i++ {
		if err := d.Insert(NewPCB(connKey(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Shuffle hard via lookups, then verify every key remains findable.
	for i := 0; i < 200; i++ {
		d.Lookup(connKey(i*7%n), DirData)
	}
	if d.Len() != n {
		t.Fatalf("Len = %d", d.Len())
	}
	for i := 0; i < n; i++ {
		if r := d.Lookup(connKey(i), DirData); r.PCB == nil {
			t.Fatalf("key %d lost after MTF churn", i)
		}
	}
}

// --- SR cache -----------------------------------------------------------------

func TestSRSendCacheServesAcks(t *testing.T) {
	d := NewSRCache()
	var pcbs []*PCB
	for i := 0; i < 20; i++ {
		p := NewPCB(connKey(i))
		pcbs = append(pcbs, p)
		if err := d.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	// Server sends a response on connection 5: the ack that follows must
	// hit the send-side cache on the first probe.
	d.NotifySend(pcbs[5])
	r := d.Lookup(pcbs[5].Key, DirAck)
	if !r.CacheHit || r.Examined != 1 {
		t.Fatalf("ack after send: hit=%v examined=%d", r.CacheHit, r.Examined)
	}
}

func TestSRProbeOrderDependsOnDirection(t *testing.T) {
	d := NewSRCache()
	a, b := NewPCB(connKey(1)), NewPCB(connKey(2))
	if err := d.Insert(a); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(b); err != nil {
		t.Fatal(err)
	}
	d.Lookup(a.Key, DirData) // recv cache = a
	d.NotifySend(b)          // send cache = b

	// Data for a: recv probed first → 1 examination.
	if r := d.Lookup(a.Key, DirData); r.Examined != 1 || !r.CacheHit {
		t.Fatalf("data via recv cache: examined=%d", r.Examined)
	}
	// Ack for b: send probed first → 1 examination.
	if r := d.Lookup(b.Key, DirAck); r.Examined != 1 || !r.CacheHit {
		t.Fatalf("ack via send cache: examined=%d", r.Examined)
	}
	// Reset caches to a known state, then take the second-probe path:
	// ack for the PCB held by the recv cache costs 2 examinations.
	d.Lookup(a.Key, DirData) // recv = a (costs 1, cache hit)
	d.NotifySend(b)          // send = b
	if r := d.Lookup(a.Key, DirAck); r.Examined != 2 || !r.CacheHit {
		t.Fatalf("ack via recv cache second probe: examined=%d hit=%v", r.Examined, r.CacheHit)
	}
}

func TestSRMissCost(t *testing.T) {
	d := NewSRCache()
	for i := 0; i < 10; i++ {
		if err := d.Insert(NewPCB(connKey(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Fill both caches with keys 8 and 9.
	d.Lookup(connKey(8), DirData)
	d.NotifySend(d.Lookup(connKey(9), DirData).PCB)
	// Key 0 is at list position 10; plus two cache probes = 12.
	r := d.Lookup(connKey(0), DirData)
	if r.Examined != 12 {
		t.Fatalf("full miss examined %d, want 12", r.Examined)
	}
}

func TestSRRemoveEvictsBothCaches(t *testing.T) {
	d := NewSRCache()
	p := NewPCB(connKey(0))
	if err := d.Insert(p); err != nil {
		t.Fatal(err)
	}
	d.Lookup(p.Key, DirData)
	d.NotifySend(p)
	d.Remove(p.Key)
	if r := d.Lookup(p.Key, DirAck); r.PCB != nil {
		t.Fatal("stale cache after removal")
	}
}

// --- Sequent -------------------------------------------------------------------

func TestSequentPerChainCache(t *testing.T) {
	d := NewSequentHash(19, nil)
	for i := 0; i < 190; i++ {
		if err := d.Insert(NewPCB(connKey(i))); err != nil {
			t.Fatal(err)
		}
	}
	k := connKey(42)
	d.Lookup(k, DirData) // prime that chain's cache
	r := d.Lookup(k, DirData)
	if !r.CacheHit || r.Examined != 1 {
		t.Fatalf("chain cache: hit=%v examined=%d", r.CacheHit, r.Examined)
	}
	// A lookup on a different chain must not disturb it.
	other := connKey(43)
	if d.chainFor(other) == d.chainFor(k) {
		other = connKey(44)
	}
	d.Lookup(other, DirData)
	if r := d.Lookup(k, DirData); !r.CacheHit {
		t.Fatal("other-chain traffic flushed this chain's cache")
	}
}

func TestSequentChainLengthsSumToLen(t *testing.T) {
	d := NewSequentHash(19, nil)
	const n = 500
	for i := 0; i < n; i++ {
		if err := d.Insert(NewPCB(connKey(i))); err != nil {
			t.Fatal(err)
		}
	}
	var sum int64
	for _, l := range d.ChainLengths() {
		sum += l
	}
	if sum != n || d.Len() != n {
		t.Fatalf("chain lengths sum %d, Len %d, want %d", sum, d.Len(), n)
	}
}

func TestSequentChainsBalanced(t *testing.T) {
	d := NewSequentHash(19, hashfn.Multiplicative{})
	for i := 0; i < 1900; i++ {
		if err := d.Insert(NewPCB(connKey(i))); err != nil {
			t.Fatal(err)
		}
	}
	if cv := stats.CoefficientOfVariation(d.ChainLengths()); cv > 0.4 {
		t.Fatalf("chain imbalance CV = %v", cv)
	}
}

func TestSequentLookupCostBoundedByChain(t *testing.T) {
	d := NewSequentHash(19, nil)
	const n = 950 // 50 per chain if balanced
	for i := 0; i < n; i++ {
		if err := d.Insert(NewPCB(connKey(i))); err != nil {
			t.Fatal(err)
		}
	}
	maxChain := int64(0)
	for _, l := range d.ChainLengths() {
		if l > maxChain {
			maxChain = l
		}
	}
	for i := 0; i < n; i++ {
		r := d.Lookup(connKey(i), DirData)
		if int64(r.Examined) > maxChain+1 {
			t.Fatalf("lookup %d examined %d, chain max %d", i, r.Examined, maxChain)
		}
	}
}

func TestSequentDefaultChains(t *testing.T) {
	d := NewSequentHash(0, nil)
	if d.NumChains() != DefaultChains {
		t.Fatalf("default chains = %d", d.NumChains())
	}
	if d.Name() != "sequent-19" {
		t.Fatalf("name = %s", d.Name())
	}
}

func TestSequentMissScansListenOnly(t *testing.T) {
	d := NewSequentHash(19, nil)
	listener := NewListenPCB(ListenKey(addr(10, 0, 0, 1), 1521))
	if err := d.Insert(listener); err != nil {
		t.Fatal(err)
	}
	r := d.Lookup(connKey(0), DirData)
	if r.PCB != listener || !r.Wildcard {
		t.Fatalf("expected listener fallback, got %+v", r)
	}
}

// --- MTF-hash -------------------------------------------------------------------

func TestMTFHashMovesWithinChain(t *testing.T) {
	d := NewMTFHash(1, nil) // single chain makes positions observable
	for i := 0; i < 10; i++ {
		if err := d.Insert(NewPCB(connKey(i))); err != nil {
			t.Fatal(err)
		}
	}
	if r := d.Lookup(connKey(0), DirData); r.Examined != 10 {
		t.Fatalf("first lookup examined %d", r.Examined)
	}
	if r := d.Lookup(connKey(0), DirData); r.Examined != 1 {
		t.Fatalf("post-MTF examined %d", r.Examined)
	}
	if d.Name() != "mtf-hash-1" {
		t.Fatalf("name = %s", d.Name())
	}
}

// --- DirectIndex ----------------------------------------------------------------

func TestDirectIndexAssignsAndRecyclesIDs(t *testing.T) {
	d := NewDirectIndex()
	a, b := NewPCB(connKey(1)), NewPCB(connKey(2))
	if err := d.Insert(a); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(b); err != nil {
		t.Fatal(err)
	}
	if ida, idb := d.IDOf(a.Key), d.IDOf(b.Key); ida != 0 || idb != 1 {
		t.Fatalf("IDs = %d, %d", ida, idb)
	}
	if r := d.LookupID(d.IDOf(a.Key)); r.PCB != a || r.Examined != 1 {
		t.Fatalf("LookupID: %+v", r)
	}
	d.Remove(a.Key)
	if d.IDOf(a.Key) != -1 {
		t.Fatal("removed PCB keeps its ID")
	}
	c := NewPCB(connKey(3))
	if err := d.Insert(c); err != nil {
		t.Fatal(err)
	}
	if id := d.IDOf(c.Key); id != 0 {
		t.Fatalf("slot not recycled: ID = %d", id)
	}
}

func TestDirectIndexLookupIDOutOfRange(t *testing.T) {
	d := NewDirectIndex()
	if r := d.LookupID(5); r.PCB != nil {
		t.Fatal("out-of-range ID returned a PCB")
	}
	if r := d.LookupID(-1); r.PCB != nil {
		t.Fatal("negative ID returned a PCB")
	}
}

func TestDirectIndexConstantCost(t *testing.T) {
	d := NewDirectIndex()
	for i := 0; i < 5000; i++ {
		if err := d.Insert(NewPCB(connKey(i))); err != nil {
			t.Fatal(err)
		}
	}
	r := d.Lookup(connKey(4999), DirData)
	if r.Examined != 1 {
		t.Fatalf("examined %d at 5000 connections, want 1", r.Examined)
	}
}

// --- MapDemux --------------------------------------------------------------------

func TestMapDemuxConstantCost(t *testing.T) {
	d := NewMapDemux()
	for i := 0; i < 5000; i++ {
		if err := d.Insert(NewPCB(connKey(i))); err != nil {
			t.Fatal(err)
		}
	}
	if r := d.Lookup(connKey(1234), DirData); r.Examined != 1 {
		t.Fatalf("examined %d, want 1", r.Examined)
	}
}

// --- cost-vs-model spot check ------------------------------------------------------

// TestBSDMeanCostMatchesEq1 drives uniform random lookups (the memoryless
// TPC/A approximation) and compares the measured mean examinations against
// Eq. 1. This is the smallest end-to-end check that the implementation's
// accounting is the quantity the paper models.
func TestBSDMeanCostMatchesEq1(t *testing.T) {
	const n = 200
	d := NewBSDList()
	for i := 0; i < n; i++ {
		if err := d.Insert(NewPCB(connKey(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Uniform random lookups, like 1/N cache hit probability.
	seq := rngSequence(12345, 40000, n)
	for _, i := range seq {
		d.Lookup(connKey(i), DirData)
	}
	got := d.Stats().MeanExamined()
	want := 1 + (float64(n)*float64(n)-1)/(2*float64(n)) // Eq. 1 = 101.5 at N=200
	if got < want*0.95 || got > want*1.05 {
		t.Fatalf("mean examined %v, Eq. 1 predicts %v", got, want)
	}
}

// rngSequence returns count uniform draws in [0, n).
func rngSequence(seed uint64, count, n int) []int {
	src := newTestRNG(seed)
	out := make([]int, count)
	for i := range out {
		out[i] = src.Intn(n)
	}
	return out
}
