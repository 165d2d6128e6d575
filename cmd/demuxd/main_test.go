//go:build linux

package main

import (
	"flag"
	"fmt"
	"net"
	"slices"
	"testing"
	"time"

	"tcpdemux/internal/core"
	"tcpdemux/internal/discipline"
	"tcpdemux/internal/hashfn"
	"tcpdemux/internal/server"
	"tcpdemux/internal/wire"
)

// freeAddr reserves a loopback port by binding and releasing it; run()
// needs a concrete address because it does not report the bound port.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserve port: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestLiveDemuxdSmoke boots the real daemon entry point (flag wiring
// aside), serves a small verified load, and drains it through the stop
// channel the way a SIGTERM would.
func TestLiveDemuxdSmoke(t *testing.T) {
	addr := freeAddr(t)
	metrics := freeAddr(t)
	stop := make(chan struct{})
	errC := make(chan error, 1)
	go func() {
		errC <- run(addr, "flat-hopscotch", "multiplicative", 256, 2, 42, metrics, 10*time.Second, stop)
	}()

	rep, err := server.RunLoad(server.LoadConfig{
		Addr:        addr,
		Conns:       16,
		TxnsPerConn: 4,
		Reopens:     1,
		Seed:        5,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if rep.Failures != 0 {
		t.Fatalf("%d failures (first: %s)", rep.Failures, rep.FirstError)
	}

	close(stop)
	select {
	case err := <-errC:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not drain after stop")
	}
}

// TestSeedDrawnUnlessGiven: each start without -seed draws its own seed,
// so the secrets derived from it differ from run to run; an explicit -seed
// is used as given.
func TestSeedDrawnUnlessGiven(t *testing.T) {
	start := func(args ...string) uint64 {
		fs := flag.NewFlagSet("demuxd", flag.ContinueOnError)
		seed := fs.Uint64("seed", 0, "")
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		s, err := seedFrom(fs, *seed)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if a, b := start(), start(); a == b {
		t.Fatalf("two starts without -seed both drew %d", a)
	}
	if s := start("-seed", "42"); s != 42 {
		t.Fatalf("-seed 42 gave seed %d", s)
	}
	if s := start("-seed", "0"); s != 0 {
		t.Fatalf("-seed 0 gave seed %d", s)
	}
}

// defaultTables returns the per-shard tables of a demuxd started with no
// flag but -seed, shut down first so that the test owns them.
func defaultTables(t *testing.T, seed uint64) []*core.AutoSequent {
	t.Helper()
	sel, err := discipline.Select(defaultDiscipline, defaultHash, defaultChains)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0", Discipline: sel, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	set := srv.StackSet()
	out := make([]*core.AutoSequent, set.Shards())
	for i := range out {
		out[i] = set.Shard(i).Demuxer().(*core.AutoSequent)
	}
	return out
}

// fill inserts a PCB for every tuple into d.
func fill(t *testing.T, d core.Demuxer, tuples []wire.Tuple) {
	t.Helper()
	for _, tu := range tuples {
		if err := d.Insert(core.NewPCB(core.KeyFromTuple(tu))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDefaultTableKeyedPerShard: the table demuxd serves with no flags
// places the same connections differently under two seeds, and on two
// shards of one seed.
func TestDefaultTableKeyedPerShard(t *testing.T) {
	clients := hashfn.SequentialClients(3000)
	var names []string
	var placements [][]int64
	for _, seed := range []uint64{1, 2} {
		for shard, d := range defaultTables(t, seed)[:2] {
			if d.NumChains() != defaultChains {
				t.Fatalf("default table has %d chains, want %d", d.NumChains(), defaultChains)
			}
			fill(t, d, clients)
			names = append(names, fmt.Sprintf("seed %d shard %d", seed, shard))
			placements = append(placements, d.ChainLengths())
		}
	}
	for i := range placements {
		for j := i + 1; j < len(placements); j++ {
			if slices.Equal(placements[i], placements[j]) {
				t.Errorf("%s and %s place 3000 clients alike", names[i], names[j])
			}
		}
	}
}

// TestDefaultTableShrugsOffPublicAttacks: populations sieved to collide
// under the public multiplicative hash and under hashfn.DefaultKeyed's
// public SipHash key spread over a demuxd-default table like any others:
// the fullest chain stays within 8x the mean and the watchdog never
// trips. Served under DefaultKeyed, the second would pile onto one chain.
func TestDefaultTableShrugsOffPublicAttacks(t *testing.T) {
	for _, fn := range []hashfn.Func{hashfn.Multiplicative{}, hashfn.DefaultKeyed} {
		attack, err := hashfn.AttackPopulation(fn, defaultChains, 5, 6000)
		if err != nil {
			t.Fatal(err)
		}
		d := defaultTables(t, 7)[0]
		fill(t, d, attack)
		if skew := d.Skew(); d.Rekeys != 0 || skew > 8 {
			t.Errorf("attack sieved under %s: %d rekeys, fullest chain %.2fx the mean", fn.Name(), d.Rekeys, skew)
		}
	}
}

// TestDefaultTableAllocatesNothing: with the watchdog checking every
// insert and every 1024th removal, a 512-chain auto-sequent holding 6,000
// PCBs inserts, removes and looks up without allocating.
func TestDefaultTableAllocatesNothing(t *testing.T) {
	d := defaultTables(t, 7)[0]
	clients := hashfn.SequentialClients(6000 + 64)
	fill(t, d, clients[:6000])
	extra := make([]*core.PCB, 64)
	for i := range extra {
		extra[i] = core.NewPCB(core.KeyFromTuple(clients[6000+i]))
		// Once in and out, so that no chain grows while measured.
		if err := d.Insert(extra[i]); err != nil || !d.Remove(extra[i].Key) {
			t.Fatalf("warm-up of %v: %v", extra[i].Key, err)
		}
	}
	i := 0
	insert := testing.AllocsPerRun(2000, func() {
		p := extra[i%len(extra)]
		i++
		if d.Insert(p) != nil || !d.Remove(p.Key) {
			t.Fatal("insert/remove failed")
		}
	})
	keys := make([]core.Key, 6000)
	for j := range keys {
		keys[j] = core.KeyFromTuple(clients[j])
	}
	lookup := testing.AllocsPerRun(2000, func() {
		i++
		if d.Lookup(keys[i%len(keys)], core.DirData).PCB == nil {
			t.Fatal("lookup missed")
		}
	})
	if insert != 0 || lookup != 0 {
		t.Fatalf("allocations: %v per insert+remove, %v per lookup", insert, lookup)
	}
}
