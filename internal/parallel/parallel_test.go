package parallel

import (
	"runtime"
	"sort"
	"sync"
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/rng"
	"tcpdemux/internal/tpca"
)

// both returns one instance of each locking discipline for conformance
// runs: the global lock (over a list and over the hash) and per-chain
// locks.
func both() []core.Concurrent {
	return []core.Concurrent{
		NewLocked(core.NewBSDList()),
		NewLocked(core.NewSequentHash(19, nil)),
		NewShardedSequent(19, nil),
	}
}

func TestConcurrentConformance(t *testing.T) {
	const n = 300
	for _, d := range both() {
		t.Run(d.Name(), func(t *testing.T) {
			pcbs := make([]*core.PCB, n)
			for i := range pcbs {
				pcbs[i] = core.NewPCB(tpca.UserKey(i))
				if err := d.Insert(pcbs[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.Insert(core.NewPCB(tpca.UserKey(0))); err != core.ErrDuplicateKey {
				t.Fatalf("duplicate insert: %v", err)
			}
			if d.Len() != n {
				t.Fatalf("Len = %d", d.Len())
			}
			for i, p := range pcbs {
				if r := d.Lookup(p.Key, core.DirData); r.PCB != p {
					t.Fatalf("lookup %d failed", i)
				}
			}
			if !d.Remove(pcbs[0].Key) || d.Remove(pcbs[0].Key) {
				t.Fatal("remove semantics wrong")
			}
			if r := d.Lookup(pcbs[0].Key, core.DirData); r.PCB != nil {
				t.Fatal("removed PCB still found")
			}
			st := d.Snapshot()
			if st.Lookups != n+1 || st.Misses != 1 {
				t.Fatalf("stats: %+v", st)
			}
		})
	}
}

func TestConcurrentWildcardFallback(t *testing.T) {
	for _, d := range both() {
		t.Run(d.Name(), func(t *testing.T) {
			listener := core.NewListenPCB(core.ListenKey(tpca.ServerAddr.Addr, tpca.ServerAddr.Port))
			if err := d.Insert(listener); err != nil {
				t.Fatal(err)
			}
			if err := d.Insert(core.NewListenPCB(listener.Key)); err != core.ErrDuplicateKey {
				t.Fatalf("duplicate listener: %v", err)
			}
			r := d.Lookup(tpca.UserKey(5), core.DirData)
			if r.PCB != listener || !r.Wildcard {
				t.Fatalf("listener fallback failed: %+v", r)
			}
			if !d.Remove(listener.Key) {
				t.Fatal("listener remove failed")
			}
			if d.Remove(listener.Key) {
				t.Fatal("double listener remove succeeded")
			}
		})
	}
}

// TestShardedMatchesSequentCosts drives identical single-threaded
// sequences through core.SequentHash and ShardedSequent and asserts
// identical examination accounting — the sharded version must be the same
// algorithm, only locked differently.
func TestShardedMatchesSequentCosts(t *testing.T) {
	const n = 500
	plain := core.NewSequentHash(19, nil)
	shard := NewShardedSequent(19, nil)
	for i := 0; i < n; i++ {
		if err := plain.Insert(core.NewPCB(tpca.UserKey(i))); err != nil {
			t.Fatal(err)
		}
		if err := shard.Insert(core.NewPCB(tpca.UserKey(i))); err != nil {
			t.Fatal(err)
		}
	}
	src := rng.New(3)
	for i := 0; i < 20000; i++ {
		k := tpca.UserKey(src.Intn(n))
		a := plain.Lookup(k, core.DirData)
		b := shard.Lookup(k, core.DirData)
		if a.Examined != b.Examined || a.CacheHit != b.CacheHit {
			t.Fatalf("lookup %d diverged: plain (%d,%v) vs sharded (%d,%v)",
				i, a.Examined, a.CacheHit, b.Examined, b.CacheHit)
		}
	}
	ps, ss := plain.Stats(), shard.Snapshot()
	if ps.Examined != ss.Examined || ps.Hits != ss.Hits {
		t.Fatalf("aggregate stats diverged: %+v vs %+v", ps, ss)
	}
}

// TestParallelStress hammers each wrapper from many goroutines doing
// mixed lookups and churn; run with -race this is the data-race check.
func TestParallelStress(t *testing.T) {
	const n = 400
	for _, d := range both() {
		t.Run(d.Name(), func(t *testing.T) {
			for i := 0; i < n; i++ {
				if err := d.Insert(core.NewPCB(tpca.UserKey(i))); err != nil {
					t.Fatal(err)
				}
			}
			workers := runtime.GOMAXPROCS(0) * 2
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					src := rng.New(seed)
					for i := 0; i < 5000; i++ {
						switch src.Intn(20) {
						case 0: // churn: remove + reinsert a high key
							k := tpca.UserKey(n + src.Intn(50))
							if !d.Remove(k) {
								_ = d.Insert(core.NewPCB(k))
							}
						default:
							k := tpca.UserKey(src.Intn(n))
							if r := d.Lookup(k, core.DirData); r.PCB == nil {
								t.Errorf("stable PCB %v vanished", k)
								return
							}
						}
					}
				}(uint64(w) + 1)
			}
			wg.Wait()
			st := d.Snapshot()
			if st.Lookups == 0 || st.Examined == 0 {
				t.Fatalf("no work recorded: %+v", st)
			}
			// The n stable PCBs must all still be present.
			for i := 0; i < n; i++ {
				if r := d.Lookup(tpca.UserKey(i), core.DirData); r.PCB == nil {
					t.Fatalf("PCB %d lost after stress", i)
				}
			}
		})
	}
}

// TestWalkSnapshot checks the Walk half of the core.Demuxer/core.Concurrent
// symmetry fix: every discipline must enumerate exactly the inserted PCB
// set (listeners included) and honor early termination.
func TestWalkSnapshot(t *testing.T) {
	const n = 120
	for _, d := range both() {
		t.Run(d.Name(), func(t *testing.T) {
			want := make(map[*core.PCB]bool, n+1)
			listener := core.NewListenPCB(core.ListenKey(tpca.ServerAddr.Addr, tpca.ServerAddr.Port))
			if err := d.Insert(listener); err != nil {
				t.Fatal(err)
			}
			want[listener] = true
			for i := 0; i < n; i++ {
				p := core.NewPCB(tpca.UserKey(i))
				if err := d.Insert(p); err != nil {
					t.Fatal(err)
				}
				want[p] = true
			}
			got := make(map[*core.PCB]bool, n+1)
			d.Walk(func(p *core.PCB) bool {
				if got[p] {
					t.Fatalf("walk visited %v twice", p.Key)
				}
				got[p] = true
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("walk saw %d PCBs, want %d", len(got), len(want))
			}
			for p := range want {
				if !got[p] {
					t.Fatalf("walk missed %v", p.Key)
				}
			}
			seen := 0
			d.Walk(func(*core.PCB) bool { seen++; return seen < 5 })
			if seen != 5 {
				t.Fatalf("early termination walked %d PCBs", seen)
			}
		})
	}
}

// TestDisciplineRegistry exercises the name-based constructor the
// command-line tools use.
func TestDisciplineRegistry(t *testing.T) {
	names := Disciplines()
	if !sort.StringsAreSorted(names) || len(names) < 3 {
		t.Fatalf("disciplines: %v", names)
	}
	for _, name := range names {
		d, err := New(name, core.Config{Chains: 19})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Insert(core.NewPCB(tpca.UserKey(1))); err != nil {
			t.Fatal(err)
		}
		if r := d.Lookup(tpca.UserKey(1), core.DirData); r.PCB == nil {
			t.Fatalf("%s: lookup failed", name)
		}
	}
	if _, err := New("nonesuch", core.Config{}); err == nil {
		t.Fatal("unknown discipline accepted")
	}
}
