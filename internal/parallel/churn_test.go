package parallel

import (
	"runtime"
	"sync"
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/rng"
	"tcpdemux/internal/tpca"
)

// churnOp is one logged operation of the concurrent churn run, replayed
// later against the oracle.
type churnOp struct {
	kind byte // 'l' lookup, 'r' remove, 'i' insert, 's' notify-send
	key  core.Key
	pcb  *core.PCB // the object inserted ('i') or notified ('s')
}

// TestConcurrentChurnMatchesOracle hammers each locking discipline with
// mixed Lookup/Insert/Remove/NotifySend goroutines, logging each
// goroutine's operations, then replays the logs through a
// Locked(SequentHash) oracle. Churned keys are private per goroutine, so
// the final PCB set is interleaving-independent and must match the
// oracle pointer for pointer, as must the deterministic statistics totals
// (lookups, misses, wildcard hits). Each worker also looks up its own
// churn keys mid-run, where the answer is known: a removed PCB must not
// survive in a chain's one-entry cache. Cache hits and examination counts
// depend on the interleaving, so those are only sanity-bounded.
func TestConcurrentChurnMatchesOracle(t *testing.T) {
	const (
		stable         = 300
		churnPerWorker = 40
		opsPerWorker   = 6000
	)
	workers := max(runtime.GOMAXPROCS(0)*2, 4)
	listener := core.NewListenPCB(core.ListenKey(tpca.ServerAddr.Addr, tpca.ServerAddr.Port))
	stablePCBs := make([]*core.PCB, stable)
	for i := range stablePCBs {
		stablePCBs[i] = core.NewPCB(tpca.UserKey(i))
	}
	populate := func(d core.Concurrent) {
		for _, p := range append([]*core.PCB{listener}, stablePCBs...) {
			if err := d.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, d := range both() {
		t.Run(d.Name(), func(t *testing.T) {
			populate(d)
			logs := make([][]churnOp, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					src := rng.New(uint64(w)*104729 + 7)
					log := make([]churnOp, 0, opsPerWorker)
					churnBase := stable + 100 + w*churnPerWorker // disjoint across workers
					mine := make(map[core.Key]*core.PCB)         // this worker's churn keys now inserted
					for i := 0; i < opsPerWorker; i++ {
						switch src.Intn(20) {
						case 0: // churn a private key
							k := tpca.UserKey(churnBase + src.Intn(churnPerWorker))
							if d.Remove(k) {
								delete(mine, k)
								log = append(log, churnOp{kind: 'r', key: k})
								continue
							}
							p := core.NewPCB(k)
							if err := d.Insert(p); err != nil {
								t.Errorf("insert %v: %v", k, err)
								return
							}
							mine[k] = p
							log = append(log, churnOp{kind: 'i', key: k, pcb: p})
						case 4: // a private key resolves to what this worker left there
							k := tpca.UserKey(churnBase + src.Intn(churnPerWorker))
							want := mine[k]
							if want == nil {
								want = listener // removed: no stale cache hit, only the listener
							}
							if r := d.Lookup(k, core.DirData); r.PCB != want {
								t.Errorf("churn key %v resolved to %+v, want %v", k, r, want)
								return
							}
							log = append(log, churnOp{kind: 'l', key: k})
						case 1: // wildcard fallback: unknown remote, listening port
							k := tpca.UserKey(10_000 + w)
							if r := d.Lookup(k, core.DirData); r.PCB != listener || !r.Wildcard {
								t.Errorf("wildcard lookup failed: %+v", r)
								return
							}
							log = append(log, churnOp{kind: 'l', key: k})
						case 2: // deterministic miss: a port nothing listens on
							k := tpca.UserKey(src.Intn(stable))
							k.LocalPort++
							if r := d.Lookup(k, core.DirData); r.PCB != nil {
								t.Errorf("miss lookup found %v", r.PCB.Key)
								return
							}
							log = append(log, churnOp{kind: 'l', key: k})
						case 3: // transmissions must be race-free
							p := stablePCBs[src.Intn(stable)]
							d.NotifySend(p)
							log = append(log, churnOp{kind: 's', pcb: p})
						default: // stable lookup: always present
							k := tpca.UserKey(src.Intn(stable))
							if r := d.Lookup(k, core.DirData); r.PCB == nil {
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

			// Replay every goroutine's log, in goroutine order. Within a
			// goroutine the order is the real execution order; across
			// goroutines the operations commute (churn keys are private,
			// lookups don't mutate), so any serialization reproduces the
			// final state.
			oracle := NewLocked(core.NewSequentHash(19, nil))
			populate(oracle)
			for w, log := range logs {
				for i, op := range log {
					switch op.kind {
					case 'l':
						oracle.Lookup(op.key, core.DirData)
					case 'r':
						if !oracle.Remove(op.key) {
							t.Fatalf("worker %d op %d: oracle remove of %v failed", w, i, op.key)
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

			collect := func(d core.Concurrent) map[*core.PCB]bool {
				set := make(map[*core.PCB]bool)
				d.Walk(func(p *core.PCB) bool { set[p] = true; return true })
				return set
			}
			got, want := collect(d), collect(oracle)
			if len(got) != len(want) || d.Len() != oracle.Len() || len(got) != d.Len() {
				t.Fatalf("PCB set sizes diverged: walk %d len %d, oracle walk %d len %d",
					len(got), d.Len(), len(want), oracle.Len())
			}
			for p := range want {
				if !got[p] {
					t.Fatalf("oracle has %v, the table lost it", p.Key)
				}
			}

			ds, os := d.Snapshot(), oracle.Snapshot()
			if ds.Lookups != os.Lookups || ds.Misses != os.Misses || ds.WildcardHits != os.WildcardHits {
				t.Fatalf("deterministic totals diverged: %+v vs oracle %+v", ds, os)
			}
			if ds.Hits > ds.Lookups || ds.Examined < ds.Lookups {
				t.Fatalf("implausible totals: %+v", ds)
			}

		})
	}
}
