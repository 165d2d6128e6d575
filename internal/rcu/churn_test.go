package rcu_test

import (
	"runtime"
	"sync"
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/parallel"
	"tcpdemux/internal/rcu"
	"tcpdemux/internal/rng"
	"tcpdemux/internal/tpca"
)

// churnOp is one logged operation of the concurrent churn run, replayed
// later against the oracle.
type churnOp struct {
	kind byte // 'l' lookup, 'w' wildcard lookup, 'm' miss lookup, 'r' remove, 'i' insert, 's' notify-send
	key  core.Key
	pcb  *core.PCB // the object inserted, for 'i'
}

// TestConcurrentChurnMatchesOracle hammers the RCU demuxer with mixed
// Lookup/Insert/Remove/NotifySend goroutines, logging each goroutine's
// operations, then replays the logs through a Locked(SequentHash) oracle.
// Churned keys are private per goroutine, so the final PCB set is
// interleaving-independent and must match the oracle exactly, as must the
// deterministic statistics totals (lookups, misses, wildcard hits — cache
// hits and examination counts legitimately depend on interleaving, so
// those are only sanity-bounded).
func TestConcurrentChurnMatchesOracle(t *testing.T) {
	const (
		stable         = 300
		churnPerWorker = 40
		opsPerWorker   = 6000
	)
	workers := runtime.GOMAXPROCS(0) * 2
	if workers < 4 {
		workers = 4
	}

	d := rcu.New(19, nil)
	listener := core.NewListenPCB(core.ListenKey(tpca.ServerAddr.Addr, tpca.ServerAddr.Port))
	if err := d.Insert(listener); err != nil {
		t.Fatal(err)
	}
	stablePCBs := make([]*core.PCB, stable)
	for i := range stablePCBs {
		stablePCBs[i] = core.NewPCB(tpca.UserKey(i))
		if err := d.Insert(stablePCBs[i]); err != nil {
			t.Fatal(err)
		}
	}

	logs := make([][]churnOp, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.New(uint64(w)*104729 + 7)
			log := make([]churnOp, 0, opsPerWorker)
			// Private churn key range: disjoint across workers.
			churnBase := stable + 100 + w*churnPerWorker
			for i := 0; i < opsPerWorker; i++ {
				switch src.Intn(20) {
				case 0: // churn a private key
					k := tpca.UserKey(churnBase + src.Intn(churnPerWorker))
					if d.Remove(k) {
						log = append(log, churnOp{kind: 'r', key: k})
					} else {
						p := core.NewPCB(k)
						if err := d.Insert(p); err != nil {
							t.Errorf("insert %v: %v", k, err)
							return
						}
						log = append(log, churnOp{kind: 'i', key: k, pcb: p})
					}
				case 1: // wildcard fallback: unknown remote, listening port
					k := tpca.UserKey(10_000 + w)
					r := d.Lookup(k, core.DirData)
					if r.PCB != listener || !r.Wildcard {
						t.Errorf("wildcard lookup failed: %+v", r)
						return
					}
					log = append(log, churnOp{kind: 'w', key: k})
				case 2: // deterministic miss: a port nothing listens on
					k := tpca.UserKey(src.Intn(stable))
					k.LocalPort++
					if r := d.Lookup(k, core.DirData); r.PCB != nil {
						t.Errorf("miss lookup found %v", r.PCB.Key)
						return
					}
					log = append(log, churnOp{kind: 'm', key: k})
				case 3: // transmissions are ignored but must be race-free
					p := stablePCBs[src.Intn(stable)]
					d.NotifySend(p)
					log = append(log, churnOp{kind: 's', pcb: p})
				default: // stable lookup: always present
					k := tpca.UserKey(src.Intn(stable))
					r := d.Lookup(k, core.DirData)
					if r.PCB == nil {
						t.Errorf("stable PCB %v vanished", k)
						return
					}
					log = append(log, churnOp{kind: 'l', key: k})
				}
			}
			logs[w] = log
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Replay every goroutine's log, in goroutine order, against the
	// oracle. Within a goroutine the order is the real execution order;
	// across goroutines the operations commute (churn keys are private,
	// lookups don't mutate), so any serialization reproduces the final
	// state.
	oracle := parallel.NewLocked(core.NewSequentHash(19, nil))
	if err := oracle.Insert(listener); err != nil {
		t.Fatal(err)
	}
	for _, p := range stablePCBs {
		if err := oracle.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	for w, log := range logs {
		for i, op := range log {
			switch op.kind {
			case 'l', 'w', 'm':
				oracle.Lookup(op.key, core.DirData)
			case 'r':
				if !oracle.Remove(op.key) {
					t.Fatalf("worker %d op %d: oracle remove of %v failed where rcu succeeded", w, i, op.key)
				}
			case 'i':
				if err := oracle.Insert(op.pcb); err != nil {
					t.Fatalf("worker %d op %d: oracle insert of %v: %v", w, i, op.key, err)
				}
			case 's':
				oracle.NotifySend(op.pcb)
			}
		}
	}

	// Final PCB sets must be identical, pointer for pointer.
	collect := func(d core.Concurrent) map[*core.PCB]bool {
		set := make(map[*core.PCB]bool)
		d.Walk(func(p *core.PCB) bool { set[p] = true; return true })
		return set
	}
	got, want := collect(d), collect(oracle)
	if len(got) != len(want) || d.Len() != oracle.Len() || len(got) != d.Len() {
		t.Fatalf("PCB set sizes diverged: rcu walk %d len %d, oracle walk %d len %d",
			len(got), d.Len(), len(want), oracle.Len())
	}
	for p := range want {
		if !got[p] {
			t.Fatalf("oracle has %v, rcu lost it", p.Key)
		}
	}

	// Deterministic statistics totals must match; interleaving-dependent
	// ones (cache hits, examinations) are bounded, not equal.
	rs, os := d.Snapshot(), oracle.Snapshot()
	if rs.Lookups != os.Lookups {
		t.Fatalf("lookup totals diverged: rcu %d vs oracle %d", rs.Lookups, os.Lookups)
	}
	if rs.Misses != os.Misses {
		t.Fatalf("miss totals diverged: rcu %d vs oracle %d", rs.Misses, os.Misses)
	}
	if rs.WildcardHits != os.WildcardHits {
		t.Fatalf("wildcard totals diverged: rcu %d vs oracle %d", rs.WildcardHits, os.WildcardHits)
	}
	if rs.Hits > rs.Lookups || rs.Examined < rs.Lookups {
		t.Fatalf("implausible rcu totals: %+v", rs)
	}
}
