package overload

import (
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/hashfn"
	"tcpdemux/internal/rcu"
	"tcpdemux/internal/wire"
)

func TestSkewed(t *testing.T) {
	flat := make([]int64, 64)
	for i := range flat {
		flat[i] = 4
	}
	if Skewed(flat) {
		t.Error("flat table flagged as skewed")
	}
	spiked := make([]int64, 64)
	spiked[17] = 256
	if !Skewed(spiked) {
		t.Error("one-chain table not flagged")
	}
	tiny := make([]int64, 64)
	tiny[0] = 32 // heavy skew but below minPopulation
	if Skewed(tiny) {
		t.Error("tiny population flagged")
	}
	if Skewed(nil) {
		t.Error("empty sample flagged")
	}
}

func TestChainsFor(t *testing.T) {
	if got := chainsFor(4500, 64); got != 563 {
		t.Errorf("chainsFor(4500, 64) = %d, want 563", got)
	}
	if got := chainsFor(10, 64); got != 64 {
		t.Errorf("table shrank: chainsFor(10, 64) = %d", got)
	}
	if got := chainsFor(1<<30, 64); got != maxChains {
		t.Errorf("cap ignored: %d", got)
	}
	if got := chainsFor(0, 0); got < 1 {
		t.Errorf("degenerate sizing: %d", got)
	}
}

// TestConstructorChainGuards is the satellite regression test: every
// constructor in the demux family clamps a non-positive chain count
// instead of building a table that divides by zero on the packet path.
func TestConstructorChainGuards(t *testing.T) {
	for _, h := range []int{0, -7} {
		if got := core.NewSequentHash(h, nil).NumChains(); got != core.DefaultChains {
			t.Errorf("NewSequentHash(%d) chains = %d", h, got)
		}
		if got := rcu.New(h, nil).NumChains(); got != core.DefaultChains {
			t.Errorf("rcu.New(%d) chains = %d", h, got)
		}
		g := NewGuarded(h, nil, 1)
		if got := g.NumChains(); got != core.DefaultChains {
			t.Errorf("NewGuarded(%d) chains = %d", h, got)
		}
		// The clamped tables must actually work.
		p := core.NewPCB(core.KeyFromTuple(hashfn.SequentialClients(1)[0]))
		if err := g.Insert(p); err != nil {
			t.Fatalf("insert into clamped table: %v", err)
		}
		if r := g.Lookup(p.Key, core.DirData); r.PCB != p {
			t.Fatalf("lookup in clamped table missed")
		}
	}
}

// attackChains is the table geometry shared by the acceptance tests.
const attackChains = 64

// mustAttack builds the collision population against the unkeyed
// multiplicative hash.
func mustAttack(t *testing.T, n int) []wire.Tuple {
	t.Helper()
	pop, err := hashfn.AttackPopulation(hashfn.Multiplicative{}, attackChains, 5, n)
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

// TestAttackSkewsUndefendedSequent pins the premise of the acceptance
// criterion: the generated population drives >= 90% of all PCBs into one
// chain of an undefended table using the unkeyed hash, and the mean
// examinations per lookup degrade to list-scan territory.
func TestAttackSkewsUndefendedSequent(t *testing.T) {
	d := core.NewSequentHash(attackChains, hashfn.Multiplicative{})
	for _, tu := range hashfn.RandomClients(400, 7) {
		if err := d.Insert(core.NewPCB(core.KeyFromTuple(tu))); err != nil {
			t.Fatal(err)
		}
	}
	attack := mustAttack(t, 4100)
	for _, tu := range attack {
		if err := d.Insert(core.NewPCB(core.KeyFromTuple(tu))); err != nil {
			t.Fatal(err)
		}
	}
	lengths := d.ChainLengths()
	var total, max int64
	for _, n := range lengths {
		total += n
		if n > max {
			max = n
		}
	}
	if frac := float64(max) / float64(total); frac < 0.90 {
		t.Fatalf("attack concentrated only %.1f%% of %d PCBs on one chain", frac*100, total)
	}
	if !Skewed(lengths) {
		t.Fatal("watchdog predicate does not flag the attacked table")
	}
	// A mid-chain victim costs thousands of examinations.
	r := d.Lookup(core.KeyFromTuple(attack[2000]), core.DirData)
	if r.PCB == nil || r.Examined < 1000 {
		t.Fatalf("expected degenerate scan, examined %d", r.Examined)
	}
}

// runAttackRecovery is the acceptance-criterion driver: benign phase to
// establish the baseline, collision attack against the initial (unkeyed)
// hash, watchdog detection, online migration with every lookup checked
// against the map-demux oracle while it runs, and a recovery phase whose
// mean examinations must come within 2x of the benign baseline.
func runAttackRecovery(t *testing.T, d *Guarded) {
	t.Helper()
	oracle := core.NewMapDemux()
	insert := func(p *core.PCB) {
		t.Helper()
		if err := d.Insert(p); err != nil {
			t.Fatalf("insert %v: %v", p.Key, err)
		}
		if err := oracle.Insert(p); err != nil {
			t.Fatalf("oracle insert %v: %v", p.Key, err)
		}
	}
	insert(core.NewListenPCB(core.ListenKey(hashfn.ServerEndpoint.Addr, hashfn.ServerEndpoint.Port)))

	// Probe keys: one never-inserted client (listener match) and one
	// wrong-port tuple (full miss) ride along with every verification
	// sweep so wildcard and miss paths stay covered mid-migration.
	strangers := []core.Key{
		core.KeyFromTuple(wire.Tuple{SrcAddr: wire.MakeAddr(172, 16, 0, 9), DstAddr: hashfn.ServerEndpoint.Addr, SrcPort: 5555, DstPort: hashfn.ServerEndpoint.Port}),
		core.KeyFromTuple(wire.Tuple{SrcAddr: wire.MakeAddr(172, 16, 0, 9), DstAddr: hashfn.ServerEndpoint.Addr, SrcPort: 5555, DstPort: 9}),
	}
	verify := func(keys []core.Key) {
		t.Helper()
		for _, k := range append(keys, strangers...) {
			got := d.Lookup(k, core.DirData)
			want := oracle.Lookup(k, core.DirData)
			if got.PCB != want.PCB || got.Wildcard != want.Wildcard {
				t.Fatalf("lookup %v diverged from oracle: got (%v, wildcard=%v) want (%v, wildcard=%v) migrating=%v",
					k, got.PCB, got.Wildcard, want.PCB, want.Wildcard, d.Migrating())
			}
		}
	}
	mean := func(a, b core.Stats) float64 {
		if b.Lookups == a.Lookups {
			t.Fatal("no lookups in window")
		}
		return float64(b.Examined-a.Examined) / float64(b.Lookups-a.Lookups)
	}

	benign := hashfn.RandomClients(400, 7)
	benignKeys := make([]core.Key, len(benign))
	for i, tu := range benign {
		benignKeys[i] = core.KeyFromTuple(tu)
		insert(core.NewPCB(benignKeys[i]))
	}
	s0 := *d.Stats()
	for round := 0; round < 5; round++ {
		verify(benignKeys)
	}
	s1 := *d.Stats()
	baseline := mean(s0, s1)
	if d.Rekeys != 0 {
		t.Fatalf("benign population triggered %d rekeys", d.Rekeys)
	}

	// Attack: the adversary knows the deployed unkeyed hash and floods
	// colliding connections. Verification sweeps interleave with the
	// inserts, so lookups demonstrably continue while the watchdog trips
	// and the migration runs.
	attack := mustAttack(t, 4100)
	attackKeys := make([]core.Key, len(attack))
	migratingVerifies := 0
	for i, tu := range attack {
		attackKeys[i] = core.KeyFromTuple(tu)
		insert(core.NewPCB(attackKeys[i]))
		// The moment a migration is in flight, interleave oracle-checked
		// lookups with it: this is the lookups-continue-throughout-
		// migration half of the acceptance criterion. (Migrations are
		// short — a stride per operation — so sample on every insert.)
		if d.Migrating() {
			migratingVerifies++
			verify(attackKeys[max(0, i-3) : i+1])
			verify(benignKeys[i%len(benignKeys) : i%len(benignKeys)+1])
		}
		if i%500 == 499 {
			verify(benignKeys[:50])
			verify(attackKeys[max(0, i-50) : i+1])
		}
	}
	if d.Rekeys == 0 {
		t.Fatal("watchdog never detected the collision attack")
	}

	// Drain any migration still in flight, verifying against the oracle
	// after every incremental step.
	allKeys := append(append([]core.Key{}, benignKeys...), attackKeys...)
	for guard := 0; d.Migrating(); guard++ {
		if guard > 10000 {
			t.Fatal("migration never completed")
		}
		migratingVerifies++
		off := (guard * 97) % len(allKeys)
		verify(allKeys[off:min(off+25, len(allKeys))])
		d.Advance(1)
	}
	if migratingVerifies == 0 {
		t.Fatal("test never verified a lookup during an in-flight migration")
	}

	// Recovery: the full population under the fresh key.
	s2 := *d.Stats()
	for round := 0; round < 3; round++ {
		verify(allKeys)
	}
	s3 := *d.Stats()
	recovered := mean(s2, s3)
	if recovered > 2*baseline {
		t.Fatalf("recovery mean %.2f exceeds 2x benign baseline %.2f", recovered, baseline)
	}
	if d.Len() != oracle.Len() {
		t.Fatalf("Len diverged: %d vs oracle %d", d.Len(), oracle.Len())
	}
	walked := 0
	d.Walk(func(*core.PCB) bool { walked++; return true })
	if walked != oracle.Len() {
		t.Fatalf("Walk visited %d PCBs, oracle holds %d", walked, oracle.Len())
	}

	// Removals after the rekey must still resolve, wherever the PCB ended
	// up, and a second rekey must not be pending.
	for _, k := range attackKeys[:100] {
		if !d.Remove(k) || !oracle.Remove(k) {
			t.Fatalf("remove %v failed after rekey", k)
		}
	}
	verify(allKeys[:200])
	t.Logf("baseline mean examined %.2f, recovered %.2f (%.2fx), rekeys %d", baseline, recovered, recovered/baseline, d.Rekeys)
}

func TestGuardedAttackRecovery(t *testing.T) {
	g := NewGuarded(attackChains, hashfn.Multiplicative{}, 1)
	runAttackRecovery(t, g)
	if g.MigratedPCBs == 0 {
		t.Error("no PCBs migrated incrementally")
	}
}

// TestGuardedDuplicateAcrossMigration pins the split-table duplicate
// check: a key still sitting in the draining table must be rejected when
// re-inserted mid-migration.
func TestGuardedDuplicateAcrossMigration(t *testing.T) {
	g := NewGuarded(attackChains, hashfn.Multiplicative{}, 1)
	keys := make([]core.Key, 0, 600)
	for _, tu := range mustAttack(t, 600) {
		k := core.KeyFromTuple(tu)
		keys = append(keys, k)
		if err := g.Insert(core.NewPCB(k)); err != nil {
			t.Fatal(err)
		}
		if g.Migrating() {
			break
		}
	}
	// The migration has just started: everything inserted so far is still
	// in the draining table, so a re-insert must be caught by the
	// cross-table duplicate check.
	if !g.Migrating() {
		t.Fatal("attack inserts did not start a migration")
	}
	if err := g.Insert(core.NewPCB(keys[0])); err != core.ErrDuplicateKey {
		t.Fatalf("duplicate across migration accepted: %v", err)
	}
	// A key inserted during the migration lands in the replacement table;
	// its duplicate must be rejected there too.
	fresh := core.KeyFromTuple(hashfn.FewClientsManyPorts(1)[0])
	if err := g.Insert(core.NewPCB(fresh)); err != nil {
		t.Fatal(err)
	}
	if err := g.Insert(core.NewPCB(fresh)); err != core.ErrDuplicateKey {
		t.Fatalf("fresh-table duplicate accepted: %v", err)
	}
	// And removal of a not-yet-migrated key must find it in the old half.
	if !g.Remove(keys[0]) {
		t.Fatal("remove of un-migrated key failed")
	}
	if r := g.Lookup(keys[0], core.DirData); r.PCB != nil && !r.Wildcard {
		t.Fatal("removed key still resolves exactly")
	}
}
