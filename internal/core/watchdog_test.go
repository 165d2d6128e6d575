package core

import (
	"fmt"
	"testing"
	"time"

	"tcpdemux/internal/hashfn"
	"tcpdemux/internal/wire"
)

func TestSkewed(t *testing.T) {
	for _, c := range []struct {
		name         string
		n, pop, h    int
		want         bool
		whyNotWanted string
	}{
		{"flat", 4, 256, 64, false, "flat table flagged as skewed"},
		{"spiked", 256, 256, 64, true, "one-chain table not flagged"},
		{"tiny", 32, 32, 64, false, "tiny population flagged"}, // heavy skew but below minPopulation
		{"empty", 0, 0, 0, false, "empty sample flagged"},
		{"at the line", 32, 256, 64, false, "a chain of exactly 8x the mean flagged"},
		{"past the line", 33, 256, 64, true, "a chain past 8x the mean not flagged"},
		// 64 PCBs on 512 chains: a mean of 1/8 counts as one PCB.
		{"sparse pair", 2, 64, 512, false, "a sparse table's two-PCB chain flagged"},
		{"sparse eight", 8, 64, 512, false, "a sparse table's eight-PCB chain flagged"},
		{"sparse nine", 9, 64, 512, true, "a sparse table's nine-PCB chain not flagged"},
	} {
		if skewed(c.n, c.pop, c.h) != c.want {
			t.Errorf("%s: %s", c.name, c.whyNotWanted)
		}
	}
}

// TestConstructorsClampChains: every constructor in the Sequent family
// clamps a non-positive chain count instead of building a table that
// divides by zero on the packet path.
func TestConstructorsClampChains(t *testing.T) {
	for _, h := range []int{0, -7} {
		if got := NewSequentHash(h, nil).NumChains(); got != DefaultChains {
			t.Errorf("NewSequentHash(%d) chains = %d", h, got)
		}
		d := NewAutoSequent(h, nil, 1)
		if got := d.NumChains(); got != DefaultChains {
			t.Errorf("NewAutoSequent(%d) chains = %d", h, got)
		}
		// The clamped tables must actually work.
		p := NewPCB(KeyFromTuple(hashfn.SequentialClients(1)[0]))
		if err := d.Insert(p); err != nil {
			t.Fatalf("insert into clamped table: %v", err)
		}
		if r := d.Lookup(p.Key, DirData); r.PCB != p {
			t.Fatalf("lookup in clamped table missed")
		}
	}
}

// attackChains is the table geometry shared by the attack tests.
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

// TestAttackSkewsUndefendedSequent pins the premise of the defense: the
// generated population drives >= 90% of all PCBs into one chain of an
// undefended table using the unkeyed hash, the watchdog's predicate flags
// it, and the mean examinations per lookup degrade to list-scan territory.
func TestAttackSkewsUndefendedSequent(t *testing.T) {
	d := NewSequentHash(attackChains, hashfn.Multiplicative{})
	for _, tu := range hashfn.RandomClients(400, 7) {
		if err := d.Insert(NewPCB(KeyFromTuple(tu))); err != nil {
			t.Fatal(err)
		}
	}
	attack := mustAttack(t, 4100)
	for _, tu := range attack {
		if err := d.Insert(NewPCB(KeyFromTuple(tu))); err != nil {
			t.Fatal(err)
		}
	}
	fullest := d.fullest()
	if frac := float64(fullest) / float64(d.chained); frac < 0.90 {
		t.Fatalf("attack concentrated only %.1f%% of %d PCBs on one chain", frac*100, d.chained)
	}
	if !skewed(fullest, d.chained, d.NumChains()) {
		t.Fatal("watchdog predicate does not flag the attacked table")
	}
	// A mid-chain victim costs thousands of examinations.
	r := d.Lookup(KeyFromTuple(attack[2000]), DirData)
	if r.PCB == nil || r.Examined < 1000 {
		t.Fatalf("expected degenerate scan, examined %d", r.Examined)
	}
}

// TestAutoSequentAttackRecovery drives the defense end to end: a benign
// phase to establish the baseline, a collision attack against the initial
// (unkeyed) hash, watchdog detection and rekey, the whole population
// checked against the map-demux oracle right after each rekey, and a
// recovery phase whose mean examinations must come within 2x of the
// benign baseline.
func TestAutoSequentAttackRecovery(t *testing.T) {
	d := NewAutoSequent(attackChains, hashfn.Multiplicative{}, 1)
	oracle := NewMapDemux()
	var allKeys []Key
	insert := func(p *PCB) {
		t.Helper()
		if err := d.Insert(p); err != nil {
			t.Fatalf("insert %v: %v", p.Key, err)
		}
		if err := oracle.Insert(p); err != nil {
			t.Fatalf("oracle insert %v: %v", p.Key, err)
		}
		if !p.Key.IsWildcard() {
			allKeys = append(allKeys, p.Key)
		}
	}
	insert(NewListenPCB(ListenKey(hashfn.ServerEndpoint.Addr, hashfn.ServerEndpoint.Port)))

	// Probe keys: one never-inserted client (listener match) and one
	// wrong-port tuple (full miss) ride along with every verification
	// sweep so the wildcard and miss paths stay covered across rekeys.
	strangers := []Key{
		KeyFromTuple(wire.Tuple{SrcAddr: wire.MakeAddr(172, 16, 0, 9), DstAddr: hashfn.ServerEndpoint.Addr, SrcPort: 5555, DstPort: hashfn.ServerEndpoint.Port}),
		KeyFromTuple(wire.Tuple{SrcAddr: wire.MakeAddr(172, 16, 0, 9), DstAddr: hashfn.ServerEndpoint.Addr, SrcPort: 5555, DstPort: 9}),
	}
	verify := func(keys []Key) {
		t.Helper()
		for _, k := range append(keys, strangers...) {
			got := d.Lookup(k, DirData)
			want := oracle.Lookup(k, DirData)
			if got.PCB != want.PCB || got.Wildcard != want.Wildcard {
				t.Fatalf("lookup %v diverged from oracle: got (%v, wildcard=%v) want (%v, wildcard=%v) after %d rekeys",
					k, got.PCB, got.Wildcard, want.PCB, want.Wildcard, d.Rekeys)
			}
		}
	}
	mean := func(a, b Stats) float64 {
		if b.Lookups == a.Lookups {
			t.Fatal("no lookups in window")
		}
		return float64(b.Examined-a.Examined) / float64(b.Lookups-a.Lookups)
	}

	for _, tu := range hashfn.RandomClients(400, 7) {
		insert(NewPCB(KeyFromTuple(tu)))
	}
	benignKeys := allKeys
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
	// colliding connections. The moment the watchdog rekeys, every PCB
	// inserted so far must still resolve exactly as the oracle says.
	verified := 0
	for _, tu := range mustAttack(t, 4100) {
		insert(NewPCB(KeyFromTuple(tu)))
		if d.Rekeys > verified {
			verified = d.Rekeys
			verify(allKeys)
		}
	}
	if d.Rekeys == 0 {
		t.Fatal("watchdog never detected the collision attack")
	}
	if skew := d.Skew(); skew > skewFactor {
		t.Fatalf("fullest chain %.2fx the mean after %d rekeys", skew, d.Rekeys)
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
	d.Walk(func(*PCB) bool { walked++; return true })
	if walked != oracle.Len() {
		t.Fatalf("Walk visited %d PCBs, oracle holds %d", walked, oracle.Len())
	}

	// Duplicates are still refused and removals still resolve after the
	// rekey.
	if err := d.Insert(NewPCB(benignKeys[0])); err != ErrDuplicateKey {
		t.Fatalf("duplicate insert after rekey: %v", err)
	}
	for _, k := range allKeys[len(allKeys)-100:] {
		if !d.Remove(k) || !oracle.Remove(k) {
			t.Fatalf("remove %v failed after rekey", k)
		}
	}
	verify(allKeys[len(allKeys)-200:])
	t.Logf("baseline mean examined %.2f, recovered %.2f (%.2fx), rekeys %d", baseline, recovered, recovered/baseline, d.Rekeys)
}

// TestWatchdogCatchesSkewLeftByRemovals: removals lower the mean without
// touching the attacked chain, so no insert trips the watchdog. The full
// check every H removals must.
func TestWatchdogCatchesSkewLeftByRemovals(t *testing.T) {
	d := NewAutoSequent(attackChains, hashfn.Multiplicative{}, 1)
	benign := hashfn.RandomClients(600, 7)
	for _, tu := range benign {
		if err := d.Insert(NewPCB(KeyFromTuple(tu))); err != nil {
			t.Fatal(err)
		}
	}
	// Thirty colliding PCBs stay under the line of a 600-PCB table
	// (8 × 630/64 ≈ 79) on the chain they share.
	for _, tu := range mustAttack(t, 30) {
		if err := d.Insert(NewPCB(KeyFromTuple(tu))); err != nil {
			t.Fatal(err)
		}
	}
	if d.Rekeys != 0 {
		t.Fatalf("%d rekeys before the benign clients left", d.Rekeys)
	}
	removed := 0
	for _, tu := range benign {
		if !d.Remove(KeyFromTuple(tu)) {
			t.Fatalf("remove %v failed", tu)
		}
		removed++
		if d.Rekeys > 0 {
			break
		}
	}
	// The line, one eighth of the population, falls to the chain's 30-odd
	// PCBs once fewer than ~240 benign PCBs remain: about 360 removals,
	// caught within 64 more.
	if d.Rekeys != 1 || removed > 600-240+attackChains {
		t.Fatalf("after %d removals: %d rekeys, skew %.2f", removed, d.Rekeys, d.Skew())
	}
}

// TestWatchdogChecksAfterGrowth: growth halves the mean, and a population
// that collides at twice the chain count keeps its one chain. The check
// after growth must catch the ratio that doubles with no insert into it.
func TestWatchdogChecksAfterGrowth(t *testing.T) {
	d := NewAutoSequent(attackChains, hashfn.Multiplicative{}, 1)
	attack, err := hashfn.AttackPopulation(hashfn.Multiplicative{}, 2*attackChains, 5, 60)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the table to its growth threshold, the attack last: its chain
	// stays under the line, 8 × 640/64 = 80.
	benign := hashfn.RandomClients(10*attackChains-len(attack)+1, 7)
	for _, tu := range append(benign[1:], attack...) {
		if err := d.Insert(NewPCB(KeyFromTuple(tu))); err != nil {
			t.Fatal(err)
		}
	}
	if d.Rekeys != 0 || d.NumChains() != attackChains {
		t.Fatalf("before growth: %d rekeys, %d chains", d.Rekeys, d.NumChains())
	}
	// The insert that doubles the chain count leaves the attack's chain
	// over 8 × 641/128 ≈ 40.
	if err := d.Insert(NewPCB(KeyFromTuple(benign[0]))); err != nil {
		t.Fatal(err)
	}
	if d.NumChains() != 2*attackChains || d.Rekeys != 1 {
		t.Fatalf("after growth: %d chains, %d rekeys", d.NumChains(), d.Rekeys)
	}
}

// BenchmarkAutoSequentInsert times an insert into a 512-chain table,
// growth and the watchdog included, averaged over filling it to n.
func BenchmarkAutoSequentInsert(b *testing.B) {
	for _, n := range []int{6000, 50000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			pcbs := make([]*PCB, n)
			for i := range pcbs {
				pcbs[i] = NewPCB(connKey(i))
			}
			var spent time.Duration
			for i := 0; i < b.N; i++ {
				d := NewAutoSequent(512, nil, 1)
				t0 := time.Now()
				for _, p := range pcbs {
					if err := d.Insert(p); err != nil {
						b.Fatal(err)
					}
				}
				spent += time.Since(t0)
			}
			b.ReportMetric(float64(spent.Nanoseconds())/float64(b.N*n), "ns/insert")
		})
	}
}
