package rcu_test

import (
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/parallel"
	"tcpdemux/internal/rng"
	"tcpdemux/internal/tpca"
	"tcpdemux/internal/wire"
)

// everyTable lists a constructor for every name in both registries: the
// locking disciplines of parallel.New under their own names, and the
// single-writer algorithms of core.New (flat-hopscotch included — parallel
// imports internal/flat, whose init registers it) under "single-writer/".
// Between them they cover both paths of core.LookupBatch: the native
// Batchers (flat.Hopscotch, flat.Concurrent) and the per-key loop that
// serves everything else.
//
// This is the adapter's conformance suite; it lives in this package, where
// it pinned rcu's own chain-grouped batch path until PR 13, because
// internal/core's test binary must not import internal/parallel (that
// would register flat-hopscotch into core's registry tests).
func everyTable() map[string]func() (core.Table, error) {
	cfg := core.Config{Chains: 19}
	all := make(map[string]func() (core.Table, error))
	for _, name := range parallel.Disciplines() {
		name := name
		all[name] = func() (core.Table, error) { return parallel.New(name, cfg) }
	}
	for _, name := range core.Algorithms() {
		name := name
		all["single-writer/"+name] = func() (core.Table, error) { return core.New(name, cfg) }
	}
	return all
}

// batchStream builds a lookup stream that exercises every path: exact
// hits (with repeats for cache hits), listener-covered misses, and total
// misses.
func batchStream(n, length int, seed uint64) []core.Key {
	src := rng.New(seed)
	stream := make([]core.Key, length)
	for i := range stream {
		switch src.Intn(10) {
		case 0: // listener-covered: right port, unknown remote
			stream[i] = tpca.UserKey(n + 1 + src.Intn(50))
		case 1: // total miss: a local port nothing listens on
			k := tpca.UserKey(src.Intn(n))
			k.LocalPort++
			stream[i] = k
		case 2, 3, 4: // repeat a recent key: drives cache hits
			stream[i] = tpca.UserKey(src.Intn(1 + n/20))
		default:
			stream[i] = tpca.UserKey(src.Intn(n))
		}
	}
	return stream
}

// TestLookupBatchMatchesPerPacket is the batched-lookup conformance run:
// for every table in both registries, core.LookupBatch must return a
// byte-identical Result sequence to per-packet Lookup over the same key
// stream — same PCB pointers, examination counts, cache-hit and wildcard
// flags — and fold identical statistics, for every train length tried.
func TestLookupBatchMatchesPerPacket(t *testing.T) {
	const n = 400
	const streamLen = 4000
	for name, build := range everyTable() {
		build := build
		t.Run(name, func(t *testing.T) {
			for _, batch := range []int{1, 3, 16, 64, 257} {
				perPacket, err := build()
				if err != nil {
					t.Fatal(err)
				}
				batched, err := build()
				if err != nil {
					t.Fatal(err)
				}
				// The same PCB objects go into both instances so Result
				// equality can compare pointers.
				listener := core.NewListenPCB(core.ListenKey(tpca.ServerAddr.Addr, tpca.ServerAddr.Port))
				pcbs := make([]*core.PCB, n)
				for i := range pcbs {
					pcbs[i] = core.NewPCB(tpca.UserKey(i))
				}
				for _, d := range []core.Table{perPacket, batched} {
					if err := d.Insert(listener); err != nil {
						t.Fatal(err)
					}
					for _, p := range pcbs {
						if err := d.Insert(p); err != nil {
							t.Fatal(err)
						}
					}
				}
				stream := batchStream(n, streamLen, 17)
				want := make([]core.Result, len(stream))
				for i, k := range stream {
					want[i] = perPacket.Lookup(k, core.DirData)
				}
				var got []core.Result
				var out []core.Result
				for off := 0; off < len(stream); off += batch {
					end := off + batch
					if end > len(stream) {
						end = len(stream)
					}
					out = core.LookupBatch(batched, stream[off:end], core.DirData, out)
					if len(out) != end-off {
						t.Fatalf("batch %d: got %d results for %d keys", batch, len(out), end-off)
					}
					got = append(got, out...)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("batch=%d: result %d diverged: per-packet %+v vs batched %+v (key %v)",
							batch, i, want[i], got[i], stream[i])
					}
				}
				a, b := core.SnapshotOf(perPacket), core.SnapshotOf(batched)
				if a != b {
					t.Fatalf("batch=%d: statistics diverged: %+v vs %+v", batch, a, b)
				}
				if a.Lookups != streamLen {
					t.Fatalf("batch=%d: %d lookups recorded, want %d", batch, a.Lookups, streamLen)
				}
			}
		})
	}
}

// TestLookupBatchEdgeCases covers the empty batch and output-slice reuse.
func TestLookupBatchEdgeCases(t *testing.T) {
	for name, build := range everyTable() {
		d, err := build()
		if err != nil {
			t.Fatal(err)
		}
		p := core.NewPCB(tpca.UserKey(0))
		if err := d.Insert(p); err != nil {
			t.Fatal(err)
		}
		if out := core.LookupBatch(d, nil, core.DirData, nil); len(out) != 0 {
			t.Fatalf("%s: empty batch returned %d results", name, len(out))
		}
		// A too-small out slice must be replaced, a big one reused.
		big := make([]core.Result, 0, 128)
		keys := []core.Key{p.Key, p.Key, p.Key}
		out := core.LookupBatch(d, keys, core.DirData, big)
		if len(out) != len(keys) {
			t.Fatalf("%s: got %d results", name, len(out))
		}
		if &out[0] != &big[:1][0] {
			t.Errorf("%s: out slice with capacity was not reused", name)
		}
		for i, r := range out {
			if r.PCB != p {
				t.Fatalf("%s: result %d wrong PCB", name, i)
			}
		}
		if out = core.LookupBatch(d, keys, core.DirData, make([]core.Result, 1)); len(out) != len(keys) {
			t.Fatalf("%s: short out slice not replaced: got %d results", name, len(out))
		}
	}
}

// TestBatchWireTrain drives the batch path from real frames: a packet
// train is parsed tuple by tuple and demultiplexed in one
// core.LookupBatch, matching the per-frame path — the receive-side
// integration the wire bench measures.
func TestBatchWireTrain(t *testing.T) {
	const conns = 64
	d, err := parallel.New("rcu-sequent", core.Config{Chains: 19})
	if err != nil {
		t.Fatal(err)
	}
	single, err := parallel.New("rcu-sequent", core.Config{Chains: 19})
	if err != nil {
		t.Fatal(err)
	}
	pcbs := make([]*core.PCB, conns)
	frames := make([][]byte, conns)
	for i := range pcbs {
		k := tpca.UserKey(i)
		pcbs[i] = core.NewPCB(k)
		if err := d.Insert(pcbs[i]); err != nil {
			t.Fatal(err)
		}
		if err := single.Insert(pcbs[i]); err != nil {
			t.Fatal(err)
		}
		tu := k.Tuple()
		frame, err := wire.BuildSegment(
			wire.IPv4Header{TTL: 64, Src: tu.SrcAddr, Dst: tu.DstAddr},
			wire.TCPHeader{SrcPort: tu.SrcPort, DstPort: tu.DstPort, Flags: wire.FlagACK},
			nil,
		)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = frame
	}
	src := rng.New(5)
	keys := make([]core.Key, 0, 32)
	var order []int
	for len(keys) < 32 {
		i := src.Intn(conns)
		tu, err := wire.ExtractTuple(frames[i])
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, core.KeyFromTuple(tu))
		order = append(order, i)
	}
	out := core.LookupBatch(d, keys, core.DirAck, nil)
	for i, r := range out {
		want := single.Lookup(keys[i], core.DirAck)
		if r != want {
			t.Fatalf("frame %d diverged: %+v vs %+v", i, r, want)
		}
		if r.PCB != pcbs[order[i]] {
			t.Fatalf("frame %d resolved to the wrong PCB", i)
		}
	}
}
