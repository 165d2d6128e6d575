package flat

import (
	"testing"
	"unsafe"

	"tcpdemux/internal/core"
	"tcpdemux/internal/rng"
	"tcpdemux/internal/wire"
)

// tables builds one fresh instance of each open-addressing variant
// (only hopscotch since the cuckoo table's removal), deliberately tiny so
// churn tests cross several growth doublings.
func tables() []*Hopscotch {
	return []*Hopscotch{NewHopscotch(0, nil)}
}

func connKey(i int) core.Key {
	return core.Key{
		LocalAddr:  wire.MakeAddr(10, 0, 0, 1),
		LocalPort:  80,
		RemoteAddr: wire.MakeAddr(192, 168, byte(i>>8), byte(i)),
		RemotePort: uint16(1024 + i%40000),
	}
}

func TestEntryIs24Bytes(t *testing.T) {
	if s := unsafe.Sizeof(entry{}); s != entryBytes {
		t.Fatalf("entry is %d bytes, want %d", s, entryBytes)
	}
}

// TestOracleChurn drives the table through an insert/lookup/remove
// churn long enough to force several growth doublings and slab-cell
// reuse, checking every lookup against a map oracle.
func TestOracleChurn(t *testing.T) {
	for _, d := range tables() {
		t.Run(d.Name(), func(t *testing.T) {
			src := rng.New(42)
			oracle := make(map[core.Key]*core.PCB)
			live := make([]core.Key, 0, 4096)
			const keyspace = 3000
			for op := 0; op < 60000; op++ {
				i := src.Intn(keyspace)
				k := connKey(i)
				switch src.Intn(4) {
				case 0: // insert
					p := core.NewPCB(k)
					err := d.Insert(p)
					if _, dup := oracle[k]; dup {
						if err != core.ErrDuplicateKey {
							t.Fatalf("op %d: duplicate insert of %v: err=%v", op, k, err)
						}
					} else {
						if err != nil {
							t.Fatalf("op %d: insert %v: %v", op, k, err)
						}
						oracle[k] = p
						live = append(live, k)
					}
				case 1: // remove
					removed := d.Remove(k)
					if _, ok := oracle[k]; ok != removed {
						t.Fatalf("op %d: remove %v = %v, oracle has=%v", op, k, removed, ok)
					}
					delete(oracle, k)
				default: // lookup (twice as likely, read-mostly like the workload)
					r := d.Lookup(k, core.DirData)
					if want := oracle[k]; r.PCB != want {
						t.Fatalf("op %d: lookup %v = %p, want %p", op, k, r.PCB, want)
					}
					if r.PCB != nil && (r.Wildcard || r.Examined < 1) {
						t.Fatalf("op %d: exact hit flagged wildcard=%v examined=%d", op, r.Wildcard, r.Examined)
					}
					if r.CacheHit {
						t.Fatalf("op %d: flat tables have no one-entry cache", op)
					}
				}
				if d.Len() != len(oracle) {
					t.Fatalf("op %d: Len=%d oracle=%d", op, d.Len(), len(oracle))
				}
			}
			// Every surviving key resolves; every dead key misses.
			for _, k := range live {
				r := d.Lookup(k, core.DirAck)
				if r.PCB != oracle[k] {
					t.Fatalf("final lookup %v = %p, want %p", k, r.PCB, oracle[k])
				}
			}
			st := d.Stats()
			if st.Hits != 0 {
				t.Fatalf("flat table recorded %d cache hits", st.Hits)
			}
			if st.Lookups == 0 || st.Examined == 0 {
				t.Fatalf("statistics not recorded: %+v", st)
			}
		})
	}
}

// TestBoundedProbes pins the structural guarantee the probe-group layout
// exists for: a fully populated table still examines at most hopRange
// cells on an exact hit.
func TestBoundedProbes(t *testing.T) {
	for _, d := range tables() {
		t.Run(d.Name(), func(t *testing.T) {
			const n = 20000
			for i := 0; i < n; i++ {
				if err := d.Insert(core.NewPCB(connKey(i))); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			const bound = hopRange
			for i := 0; i < n; i++ {
				r := d.Lookup(connKey(i), core.DirData)
				if r.PCB == nil {
					t.Fatalf("lookup %d missed", i)
				}
				if r.Examined > bound {
					t.Fatalf("lookup %d examined %d cells, bound %d", i, r.Examined, bound)
				}
			}
			if max := d.Stats().MaxExamined; max > bound {
				t.Fatalf("MaxExamined=%d exceeds bound %d", max, bound)
			}
		})
	}
}

// TestGenerationGuard exercises slab-cell reuse: after a remove, the
// freed cell is recycled by the next insert, and the generation bump
// must keep any stale reference from resolving.
func TestGenerationGuard(t *testing.T) {
	for _, d := range tables() {
		t.Run(d.Name(), func(t *testing.T) {
			a, b := connKey(1), connKey(2)
			pa := core.NewPCB(a)
			if err := d.Insert(pa); err != nil {
				t.Fatal(err)
			}
			if !d.Remove(a) {
				t.Fatal("remove failed")
			}
			pb := core.NewPCB(b)
			if err := d.Insert(pb); err != nil {
				t.Fatal(err)
			}
			if r := d.Lookup(a, core.DirData); r.PCB != nil {
				t.Fatalf("removed key resolved to %v", r.PCB.Key)
			}
			if r := d.Lookup(b, core.DirData); r.PCB != pb {
				t.Fatalf("reused slab cell did not resolve to new PCB")
			}
			// Reinsert the removed key: a fresh PCB, found under the new
			// generation.
			pa2 := core.NewPCB(a)
			if err := d.Insert(pa2); err != nil {
				t.Fatal(err)
			}
			if r := d.Lookup(a, core.DirData); r.PCB != pa2 {
				t.Fatalf("reinserted key resolved to %p, want %p", r.PCB, pa2)
			}
		})
	}
}

// TestListeners checks the wildcard path: scoring, specificity
// precedence, miss accounting and listener removal — same semantics as
// the chained disciplines.
func TestListeners(t *testing.T) {
	for _, d := range tables() {
		t.Run(d.Name(), func(t *testing.T) {
			anyIf := core.NewListenPCB(core.ListenKey(wire.Addr{}, 80))
			oneIf := core.NewListenPCB(core.ListenKey(wire.MakeAddr(10, 0, 0, 1), 80))
			if err := d.Insert(anyIf); err != nil {
				t.Fatal(err)
			}
			if err := d.Insert(oneIf); err != nil {
				t.Fatal(err)
			}
			if err := d.Insert(core.NewListenPCB(oneIf.Key)); err != core.ErrDuplicateKey {
				t.Fatalf("duplicate listener: %v", err)
			}
			k := connKey(7)
			r := d.Lookup(k, core.DirData)
			if r.PCB != oneIf || !r.Wildcard {
				t.Fatalf("want specific listener, got %+v", r)
			}
			// An established connection shadows the listeners.
			p := core.NewPCB(k)
			if err := d.Insert(p); err != nil {
				t.Fatal(err)
			}
			if r := d.Lookup(k, core.DirData); r.PCB != p || r.Wildcard {
				t.Fatalf("exact match did not shadow listener: %+v", r)
			}
			// Local port must match: a packet for another port misses both.
			other := k
			other.LocalPort = 81
			if r := d.Lookup(other, core.DirData); r.PCB != nil {
				t.Fatalf("port 81 resolved to %v", r.PCB.Key)
			}
			if d.Stats().Misses != 1 {
				t.Fatalf("miss not recorded: %+v", d.Stats())
			}
			if !d.Remove(oneIf.Key) || !d.Remove(anyIf.Key) {
				t.Fatal("listener removal failed")
			}
			if d.Len() != 1 {
				t.Fatalf("Len=%d after listener removal", d.Len())
			}
		})
	}
}

// TestWalk checks Walk coverage (every live PCB exactly once, listeners
// included) and early termination.
func TestWalk(t *testing.T) {
	for _, d := range tables() {
		t.Run(d.Name(), func(t *testing.T) {
			want := make(map[*core.PCB]bool)
			for i := 0; i < 500; i++ {
				p := core.NewPCB(connKey(i))
				if err := d.Insert(p); err != nil {
					t.Fatal(err)
				}
				want[p] = false
			}
			l := core.NewListenPCB(core.ListenKey(wire.MakeAddr(10, 0, 0, 1), 80))
			if err := d.Insert(l); err != nil {
				t.Fatal(err)
			}
			want[l] = false
			for i := 0; i < 250; i++ {
				if !d.Remove(connKey(i)) {
					t.Fatal("remove failed")
				}
			}
			seen := 0
			d.Walk(func(p *core.PCB) bool {
				visited, ok := want[p]
				if !ok && p.Key.IsWildcard() == false {
					// Removed PCBs must not appear.
					for i := 0; i < 250; i++ {
						if p.Key == connKey(i) {
							t.Fatalf("walk visited removed PCB %v", p.Key)
						}
					}
				}
				if visited {
					t.Fatalf("walk visited %v twice", p.Key)
				}
				want[p] = true
				seen++
				return true
			})
			if seen != d.Len() {
				t.Fatalf("walk visited %d PCBs, Len=%d", seen, d.Len())
			}
			n := 0
			d.Walk(func(*core.PCB) bool { n++; return false })
			if n != 1 {
				t.Fatalf("early-terminated walk visited %d", n)
			}
		})
	}
}

// TestRegistry checks that the table is reachable through core's name
// registry (registered from this package's init).
func TestRegistry(t *testing.T) {
	const name = "flat-hopscotch"
	d, err := core.New(name, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != name {
		t.Fatalf("Name=%q want %q", d.Name(), name)
	}
}

// FuzzFlatOps feeds a byte-coded operation stream to the table and
// cross-checks every lookup against a map oracle — the fuzz-shaped twin
// of TestOracleChurn, minus the determinism of its fixed seed.
func FuzzFlatOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 2, 1, 1, 1, 2, 2})
	f.Add([]byte{0, 10, 0, 11, 0, 12, 1, 10, 0, 13, 2, 11})
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, d := range tables() {
			oracle := make(map[core.Key]*core.PCB)
			for i := 0; i+1 < len(ops); i += 2 {
				k := connKey(int(ops[i+1]))
				switch ops[i] % 3 {
				case 0:
					p := core.NewPCB(k)
					err := d.Insert(p)
					if _, dup := oracle[k]; dup {
						if err != core.ErrDuplicateKey {
							t.Fatalf("%s: dup insert err=%v", d.Name(), err)
						}
					} else if err != nil {
						t.Fatalf("%s: insert: %v", d.Name(), err)
					} else {
						oracle[k] = p
					}
				case 1:
					removed := d.Remove(k)
					if _, ok := oracle[k]; ok != removed {
						t.Fatalf("%s: remove=%v oracle=%v", d.Name(), removed, ok)
					}
					delete(oracle, k)
				case 2:
					if r := d.Lookup(k, core.DirData); r.PCB != oracle[k] {
						t.Fatalf("%s: lookup %v = %p, want %p", d.Name(), k, r.PCB, oracle[k])
					}
				}
				if d.Len() != len(oracle) {
					t.Fatalf("%s: Len=%d oracle=%d", d.Name(), d.Len(), len(oracle))
				}
			}
		}
	})
}
