package flat

import (
	"sync"
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/rng"
)

// buildPair populates two identical tables (one will run per-packet
// lookups, the other batched) plus the packet stream: exact hits,
// listener hits, repeats, and total misses.
func buildPair(t *testing.T) (per, bat *Hopscotch, stream []core.Key) {
	t.Helper()
	per, bat = NewHopscotch(0, nil), NewHopscotch(0, nil)
	src := rng.New(7)
	const conns = 900
	// The same PCB objects go into both instances so Results compare
	// pointer-for-pointer.
	for i := 0; i < conns; i++ {
		p := core.NewPCB(connKey(i))
		for _, d := range []*Hopscotch{per, bat} {
			if err := d.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	l := core.NewListenPCB(core.ListenKey(connKey(0).LocalAddr, 80))
	for _, d := range []*Hopscotch{per, bat} {
		if err := d.Insert(l); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3000; i++ {
		switch src.Intn(10) {
		case 0: // miss on another port
			k := connKey(src.Intn(conns))
			k.LocalPort = 9999
			stream = append(stream, k)
		case 1: // listener hit: right port, unknown remote
			stream = append(stream, connKey(conns+src.Intn(conns)))
		default: // exact hit, Zipf-ish repeats
			stream = append(stream, connKey(src.Intn(conns)))
		}
	}
	return per, bat, stream
}

// TestBatchMatchesPerPacket is the package-local twin of the
// cross-discipline batch conformance test: for every batch size and
// every prefetch depth (including 0, the pipeline off), LookupBatch's
// Result sequence and folded statistics must be identical to per-packet
// Lookup.
func TestBatchMatchesPerPacket(t *testing.T) {
	for _, depth := range []int{0, 1, 2, 4, 8, 16} {
		t.Run("flat-hopscotch", func(t *testing.T) {
			per, bat, stream := buildPair(t)
			bat.SetPrefetchDepth(depth)
			if bat.PrefetchDepth() != depth {
				t.Fatalf("PrefetchDepth=%d want %d", bat.PrefetchDepth(), depth)
			}
			var out []core.Result
			for _, size := range []int{1, 3, 16, 64, 257} {
				for lo := 0; lo < len(stream); lo += size {
					hi := lo + size
					if hi > len(stream) {
						hi = len(stream)
					}
					out = bat.LookupBatch(stream[lo:hi], core.DirData, out)
					for i, k := range stream[lo:hi] {
						want := per.Lookup(k, core.DirData)
						if out[i] != want {
							t.Fatalf("depth %d size %d key %d: batch %+v, per-packet %+v",
								depth, size, lo+i, out[i], want)
						}
					}
				}
			}
			if ps, bs := *per.Stats(), *bat.Stats(); ps != bs {
				t.Fatalf("depth %d: stats diverge: per-packet %+v, batch %+v", depth, ps, bs)
			}
		})
	}
}

// TestBatchEdgeCases: empty batches, nil out, and out reuse when
// capacity suffices.
func TestBatchEdgeCases(t *testing.T) {
	d := NewHopscotch(0, nil)
	if err := d.Insert(core.NewPCB(connKey(1))); err != nil {
		t.Fatal(err)
	}
	out := d.LookupBatch(nil, core.DirData, nil)
	if len(out) != 0 {
		t.Fatalf("empty batch returned %d results", len(out))
	}
	big := make([]core.Result, 64)
	out = d.LookupBatch([]core.Key{connKey(1)}, core.DirData, big)
	if len(out) != 1 || &out[0] != &big[:1][0] {
		t.Fatal("batch did not reuse caller's buffer")
	}
	if out[0].PCB == nil {
		t.Fatal("batch missed an inserted key")
	}
}

// TestConcurrentWrapper checks the RWMutex wrapper end to end: results
// against the raw table, snapshot equality between the per-packet and
// batched paths, and Len/Walk/NotifySend passthrough.
func TestConcurrentWrapper(t *testing.T) {
	per, bat, stream := buildPair(t)
	cper, cbat := NewConcurrent(per), NewConcurrent(bat)
	var out []core.Result
	for lo := 0; lo < len(stream); lo += 32 {
		hi := lo + 32
		if hi > len(stream) {
			hi = len(stream)
		}
		out = cbat.LookupBatch(stream[lo:hi], core.DirData, out)
		for i, k := range stream[lo:hi] {
			if want := cper.Lookup(k, core.DirData); out[i] != want {
				t.Fatalf("%s: concurrent batch diverges at %d: %+v vs %+v",
					cper.Name(), lo+i, out[i], want)
			}
		}
	}
	if ps, bs := cper.Snapshot(), cbat.Snapshot(); ps != bs {
		t.Fatalf("%s: snapshots diverge: %+v vs %+v", cper.Name(), ps, bs)
	}
	if cper.Snapshot().Lookups != uint64(len(stream)) {
		t.Fatalf("%s: snapshot lookups=%d want %d", cper.Name(), cper.Snapshot().Lookups, len(stream))
	}
	// The inner table's own stats must stay untouched under the wrapper.
	if st := *per.Stats(); st.Lookups != 0 {
		t.Fatalf("%s: inner stats leaked: %+v", cper.Name(), st)
	}
	if cper.Len() != per.Len() {
		t.Fatalf("Len passthrough broken")
	}
}

// TestConcurrentReaders is the -race smoke: concurrent batched and
// per-packet readers against a writer churning inserts/removes and a
// snapshotter.
func TestConcurrentReaders(t *testing.T) {
	c := NewConcurrent(NewHopscotch(0, nil))
	const conns = 512
	for i := 0; i < conns; i++ {
		if err := c.Insert(core.NewPCB(connKey(i))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	const perReader = 1500
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			src := rng.New(seed)
			keys := make([]core.Key, 16)
			var out []core.Result
			for n := 0; n < perReader; n++ {
				if src.Intn(2) == 0 {
					for i := range keys {
						keys[i] = connKey(src.Intn(conns))
					}
					out = c.LookupBatch(keys, core.DirData, out)
					if len(out) != len(keys) {
						panic("short batch")
					}
				} else {
					c.Lookup(connKey(src.Intn(conns)), core.DirAck)
				}
			}
		}(uint64(g + 1))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		src := rng.New(99)
		for i := 0; i < 4000; i++ {
			k := connKey(conns + src.Intn(conns))
			if src.Intn(2) == 0 {
				_ = c.Insert(core.NewPCB(k))
			} else {
				c.Remove(k)
			}
			if i%64 == 0 {
				c.Snapshot()
				c.Len()
			}
		}
	}()
	wg.Wait()
	st := c.Snapshot()
	// Every reader iteration recorded at least one lookup; readers
	// never probed churn keys, so hits stay zero and totals balance.
	if st.Lookups < 4*perReader || st.Hits != 0 {
		t.Fatalf("implausible snapshot %+v", st)
	}
}
