package core

import (
	"fmt"
	"testing"

	"tcpdemux/internal/hashfn"
	"tcpdemux/internal/stats"
)

func TestAutoSequentGrows(t *testing.T) {
	d := NewAutoSequent(4, nil, 1) // grow past 40, 80, 160, ...
	const n = 1000
	for i := 0; i < n; i++ {
		if err := d.Insert(NewPCB(connKey(i))); err != nil {
			t.Fatal(err)
		}
	}
	if d.Len() != n {
		t.Fatalf("Len = %d", d.Len())
	}
	if d.Rehashes == 0 {
		t.Fatal("never grew")
	}
	// Load factor must be at or below the threshold.
	if load := float64(n) / float64(d.NumChains()); load > DefaultMaxLoad {
		t.Fatalf("load factor %v above threshold", load)
	}
	// Every PCB must survive every rehash.
	for i := 0; i < n; i++ {
		if r := d.Lookup(connKey(i), DirData); r.PCB == nil {
			t.Fatalf("PCB %d lost after rehash", i)
		}
	}
	// Amortized rehash work is O(1) per insert: total moves < 2N for
	// doubling growth.
	if d.RehashExaminations > 2*n {
		t.Fatalf("rehash moved %d PCBs for %d inserts", d.RehashExaminations, n)
	}
}

func TestAutoSequentBoundedCost(t *testing.T) {
	d := NewAutoSequent(4, nil, 1)
	fixed := NewSequentHash(4, nil)
	const n = 2000
	for i := 0; i < n; i++ {
		if err := d.Insert(NewPCB(connKey(i))); err != nil {
			t.Fatal(err)
		}
		if err := fixed.Insert(NewPCB(connKey(i))); err != nil {
			t.Fatal(err)
		}
	}
	src := newTestRNG(3)
	for i := 0; i < 20000; i++ {
		k := connKey(src.Intn(n))
		d.Lookup(k, DirData)
		fixed.Lookup(k, DirData)
	}
	auto := d.Stats().MeanExamined()
	fix := fixed.Stats().MeanExamined()
	// Auto table stays near (maxLoad+1)/2 + cache probe; the fixed
	// 4-chain table degrades toward N/8.
	if auto > DefaultMaxLoad {
		t.Fatalf("auto-sequent mean %v exceeds load bound", auto)
	}
	if fix < 10*auto {
		t.Fatalf("fixed table %v not clearly worse than auto %v", fix, auto)
	}
}

// rebuildCases are the two ways an AutoSequent replaces its table:
// growth alone, by inserting past the load threshold, and growth followed
// by a Rekey under a keyed hash.
var rebuildCases = []struct {
	name  string
	rekey bool
}{{"growth", false}, {"growth+rekey", true}}

// rekeyAndCheck rekeys d under a fresh SipHash key and checks the rebuild:
// the chain count holds, Rehashes and RehashExaminations count it as
// they count growth, every one of the first n connection keys still
// resolves, and a duplicate insert is refused.
func rekeyAndCheck(t *testing.T, d *AutoSequent, n int) {
	t.Helper()
	chains, rehashes, moves := d.NumChains(), d.Rehashes, d.RehashExaminations
	d.Rekey(hashfn.KeyedFromRNG(newTestRNG(5)))
	if d.NumChains() != chains || d.Rehashes != rehashes+1 || d.RehashExaminations != moves+uint64(d.Len()) {
		t.Fatalf("Rekey: chains %d -> %d, rehashes %d -> %d, moves %d -> %d for %d PCBs",
			chains, d.NumChains(), rehashes, d.Rehashes, moves, d.RehashExaminations, d.Len())
	}
	for i := 0; i < n; i++ {
		if r := d.Lookup(connKey(i), DirData); r.PCB == nil || r.Wildcard {
			t.Fatalf("PCB %d lost after rekey", i)
		}
	}
	if err := d.Insert(NewPCB(connKey(0))); err != ErrDuplicateKey {
		t.Fatalf("duplicate insert after rekey: %v", err)
	}
}

func TestAutoSequentStatsPointerStableAcrossGrowth(t *testing.T) {
	for _, tc := range rebuildCases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewAutoSequent(2, nil, 1) // grow past 20, 40, 80
			st := d.Stats()
			const n = 100
			for i := 0; i < n; i++ {
				if err := d.Insert(NewPCB(connKey(i))); err != nil {
					t.Fatal(err)
				}
				d.Lookup(connKey(i), DirData)
			}
			if d.Rehashes == 0 {
				t.Fatal("expected growth")
			}
			want := uint64(n)
			if tc.rekey {
				rekeyAndCheck(t, d, n)
				want += n
			}
			if st != d.Stats() || st.Lookups != want {
				t.Fatalf("stats pointer went stale across rehash: %v vs %v", st, d.Stats())
			}
		})
	}
}

func TestAutoSequentListenersSurviveGrowth(t *testing.T) {
	for _, tc := range rebuildCases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewAutoSequent(2, nil, 1)
			listener := NewListenPCB(ListenKey(addr(10, 0, 0, 1), 1521))
			if err := d.Insert(listener); err != nil {
				t.Fatal(err)
			}
			const n = 200
			for i := 0; i < n; i++ {
				if err := d.Insert(NewPCB(connKey(i))); err != nil {
					t.Fatal(err)
				}
			}
			if tc.rekey {
				rekeyAndCheck(t, d, n)
				if err := d.Insert(NewListenPCB(listener.Key)); err != ErrDuplicateKey {
					t.Fatalf("duplicate listener after rekey: %v", err)
				}
			}
			// A SYN to the listening port still resolves after several
			// growths.
			syn := Key{LocalAddr: addr(10, 0, 0, 1), LocalPort: 1521,
				RemoteAddr: addr(99, 9, 9, 9), RemotePort: 7777}
			if r := d.Lookup(syn, DirData); r.PCB != listener {
				t.Fatalf("listener lost across rebuild: %+v", r)
			}
		})
	}
}

// BenchmarkAutoSequentRekey times one Rekey — the stop-the-world pause
// a watchdog trip costs the table's owner — over n PCBs on n/8 chains.
func BenchmarkAutoSequentRekey(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			d := NewAutoSequent(n/8, nil, 1)
			for i := 0; i < n; i++ {
				if err := d.Insert(NewPCB(connKey(i))); err != nil {
					b.Fatal(err)
				}
			}
			src := newTestRNG(5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Rekey(hashfn.KeyedFromRNG(src))
			}
		})
	}
}

func TestAutoSequentChainsStayBalanced(t *testing.T) {
	d := NewAutoSequent(0, nil, 1)
	for i := 0; i < 3000; i++ {
		if err := d.Insert(NewPCB(connKey(i))); err != nil {
			t.Fatal(err)
		}
	}
	if cv := stats.CoefficientOfVariation(d.ChainLengths()); cv > 0.6 {
		t.Fatalf("post-rehash imbalance CV = %v", cv)
	}
}
