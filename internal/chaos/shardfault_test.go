package chaos

import (
	"strings"
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/engine"
	"tcpdemux/internal/hashfn"
	"tcpdemux/internal/shard"
	"tcpdemux/internal/wire"
)

// TestShardRuleWindowsAndCombination pins the injector's window and
// fold semantics: rules apply only to their shard inside [From, Until),
// independent faults on one shard combine, and overlapping Slow rules
// take the tighter consumption cap.
func TestShardRuleWindowsAndCombination(t *testing.T) {
	in := NewShardInjector(
		ShardRule{Fault: ShardCrash, Shard: 1, From: 1, Until: 2},
		ShardRule{Fault: ShardWedge, Shard: 1, From: 1.5, Until: Forever},
		ShardRule{Fault: ShardSlow, Shard: 0, From: 0, Until: Forever, MaxConsume: 3},
		ShardRule{Fault: ShardSlow, Shard: 0, From: 2, Until: 3}, // MaxConsume unset: 1
		ShardRule{Fault: ShardStall, Shard: 2, From: 0, Until: 1},
	)
	f := in.Func()

	cases := []struct {
		shard int
		now   float64
		want  shard.FaultVerdict
	}{
		{1, 0.5, shard.FaultVerdict{}},                         // before the window
		{1, 1.0, shard.FaultVerdict{Crash: true}},              // From is inclusive
		{1, 1.7, shard.FaultVerdict{Crash: true, Wedge: true}}, // faults combine
		{1, 2.0, shard.FaultVerdict{Wedge: true}},              // Until is exclusive
		{0, 0.5, shard.FaultVerdict{MaxConsume: 3}},            // slow alone
		{0, 2.5, shard.FaultVerdict{MaxConsume: 1}},            // tighter cap wins
		{2, 0.0, shard.FaultVerdict{Stall: true}},              // zero From matches
		{2, 1.0, shard.FaultVerdict{}},                         // window closed
		{3, 1.5, shard.FaultVerdict{}},                         // untargeted shard
	}
	for _, c := range cases {
		if got := f(c.shard, c.now); got != c.want {
			t.Fatalf("verdict(shard=%d, now=%v) = %+v, want %+v", c.shard, c.now, got, c.want)
		}
	}

	if in.Count(ShardCrash) != 2 || in.Count(ShardWedge) != 2 ||
		in.Count(ShardSlow) != 3 || in.Count(ShardStall) != 1 {
		t.Fatalf("inflicted counts: %s", in.Summary())
	}
	sum := in.Summary()
	for _, want := range []string{"crash=2", "wedge=2", "slow=3", "stall=1"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary %q missing %q", sum, want)
		}
	}
	if in.Count(ShardFault(99)) != 0 {
		t.Fatal("out-of-range fault counted")
	}
}

// TestShardRuleZeroWindowNeverFires matches the wire-chaos Rule
// contract: the zero value's [0, 0) window is inert.
func TestShardRuleZeroWindowNeverFires(t *testing.T) {
	in := NewShardInjector(ShardRule{Fault: ShardCrash})
	f := in.Func()
	for _, now := range []float64{0, 0.5, 1e9} {
		if got := f(0, now); got != (shard.FaultVerdict{}) {
			t.Fatalf("zero-window rule fired at %v: %+v", now, got)
		}
	}
	if in.Summary() != "none" {
		t.Fatalf("summary = %q, want none", in.Summary())
	}
}

// TestShardFaultString names every fault.
func TestShardFaultString(t *testing.T) {
	want := map[ShardFault]string{
		ShardCrash: "crash", ShardStall: "stall", ShardWedge: "wedge", ShardSlow: "slow",
	}
	for f, s := range want {
		if f.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(f), f.String(), s)
		}
	}
	if ShardFault(42).String() != "shardfault(42)" {
		t.Fatalf("fallback String: %q", ShardFault(42).String())
	}
}

// TestShardInjectorDrivesDrain is the end-to-end wiring check: an
// injector-scripted crash installed on a live StackSet must trip the
// health watchdog and drain the crashed shard, while the exchange
// completes conformantly on the survivors.
func TestShardInjectorDrivesDrain(t *testing.T) {
	set, err := shard.NewStackSet(wire.MakeAddr(10, 0, 0, 1), shard.Config{
		Shards: 4,
		NewDemuxer: func(int) core.Demuxer {
			return core.NewSequentHash(0, hashfn.Multiplicative{})
		},
		Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := NewShardInjector(ShardRule{Fault: ShardCrash, Shard: 2, From: 1, Until: Forever})
	set.SetFaultFunc(in.Func())

	res, err := engine.RunLossyExchange(nil, engine.LossyConfig{
		Clients: 8,
		Txns:    12,
		Seed:    99,
		Link: engine.LinkConfig{
			Seed: 1234, DropRate: 0.20, DupRate: 0.10, Latency: 0.01, Jitter: 0.004,
		},
		RTO: 0.25, MaxRetries: 40, MSL: 0.5, MaxVirtualTime: 2000,
		Server: set,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("exchange did not complete (t=%v)", res.VirtualTime)
	}
	if !set.Drained(2) {
		t.Fatalf("scripted crash not drained: health=%v drains=%d", set.Health(2), set.Stats().Drains)
	}
	if in.Count(ShardCrash) == 0 {
		t.Fatal("injector recorded no crash applications")
	}
	if acc := set.Accounting(); !acc.Balanced() {
		t.Fatalf("unaccounted packet losses: %+v", acc)
	}
}
