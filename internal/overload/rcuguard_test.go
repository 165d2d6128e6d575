package overload

import (
	"sync"
	"sync/atomic"
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/hashfn"
)

func TestRCUGuardedAttackRecovery(t *testing.T) {
	g := NewRCUGuarded(attackChains, hashfn.Multiplicative{}, 1, Config{})
	runAttackRecovery(t, g,
		g.Snapshot,
		func() int { g.mu.Lock(); defer g.mu.Unlock(); return g.Rekeys })
	if g.MigratedPCBs == 0 {
		t.Error("no PCBs migrated incrementally")
	}
}

// TestRCUGuardedLookupBatch checks the guard under core.LookupBatch (the
// adapter's loop: the guard has no native batch path) against the scalar
// lookups.
func TestRCUGuardedLookupBatch(t *testing.T) {
	g := NewRCUGuarded(attackChains, nil, 3, Config{})
	tuples := hashfn.RandomClients(100, 9)
	keys := make([]core.Key, len(tuples))
	pcbs := make([]*core.PCB, len(tuples))
	for i, tu := range tuples {
		keys[i] = core.KeyFromTuple(tu)
		pcbs[i] = core.NewPCB(keys[i])
		if err := g.Insert(pcbs[i]); err != nil {
			t.Fatal(err)
		}
	}
	out := core.LookupBatch(g, keys, core.DirData, nil)
	if len(out) != len(keys) {
		t.Fatalf("batch returned %d results for %d keys", len(out), len(keys))
	}
	for i := range out {
		if out[i].PCB != pcbs[i] {
			t.Fatalf("batch result %d wrong PCB", i)
		}
	}
}

// TestRCUGuardedConcurrentReadersDuringRekey is the no-stop-the-world
// check under the race detector: reader goroutines hammer lookups for
// keys known to be inserted while the writer injects the collision
// attack, the watchdog trips, and the incremental migration republishes
// the table pair. Every reader lookup for a stable key must resolve to
// the exact same PCB throughout — any torn table state would surface as a
// nil or wrong result (or a race report).
func TestRCUGuardedConcurrentReadersDuringRekey(t *testing.T) {
	g := NewRCUGuarded(attackChains, hashfn.Multiplicative{}, 1, Config{})
	if err := g.Insert(core.NewListenPCB(core.ListenKey(hashfn.ServerEndpoint.Addr, hashfn.ServerEndpoint.Port))); err != nil {
		t.Fatal(err)
	}
	stable := hashfn.RandomClients(200, 7)
	stableKeys := make([]core.Key, len(stable))
	stablePCBs := make([]*core.PCB, len(stable))
	for i, tu := range stable {
		stableKeys[i] = core.KeyFromTuple(tu)
		stablePCBs[i] = core.NewPCB(stableKeys[i])
		if err := g.Insert(stablePCBs[i]); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var bad atomic.Int64
	var spins atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				k := stableKeys[(i*7+w)%len(stableKeys)]
				if r := g.Lookup(k, core.DirData); r.PCB != stablePCBs[(i*7+w)%len(stableKeys)] {
					bad.Add(1)
					return
				}
				spins.Add(1)
			}
		}(w)
	}
	// Let the readers get going before the flood so the lookup stream
	// demonstrably overlaps the rekey and migration.
	for spins.Load() < 1000 {
	}

	attack := mustAttack(t, 2000)
	for _, tu := range attack {
		if err := g.Insert(core.NewPCB(core.KeyFromTuple(tu))); err != nil {
			t.Fatal(err)
		}
	}
	for guard := 0; g.Migrating(); guard++ {
		if guard > 10000 {
			t.Fatal("migration never completed")
		}
		g.Advance(1)
	}
	stop.Store(true)
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d reader lookups resolved wrong during rekey", bad.Load())
	}
	g.mu.Lock()
	rekeys := g.Rekeys
	g.mu.Unlock()
	if rekeys == 0 {
		t.Fatal("watchdog never tripped under concurrent load")
	}
	st := g.Snapshot()
	if st.Lookups == 0 || st.Examined < st.Lookups {
		t.Fatalf("implausible stats after concurrent run: %+v", st)
	}
}
