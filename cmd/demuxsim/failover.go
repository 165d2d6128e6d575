package main

import (
	"bytes"
	"fmt"
	"io"
	"text/tabwriter"

	"tcpdemux/internal/chaos"
	"tcpdemux/internal/discipline"
	"tcpdemux/internal/engine"
	"tcpdemux/internal/shard"
	"tcpdemux/internal/wire"
)

// runFailover drives the shard failure-domain scenario end to end: the
// full lossy client population against an N-shard set, one shard
// scripted to fail mid-run by a chaos.ShardInjector, the health
// watchdog expected to detect the failure and live-drain the victim's
// connections into the survivors. The run is held to the same
// conformance bar as the healthy sharded workload — application bytes
// identical to the unfaulted single-stack baseline — plus the
// conservation check: every frame accounted absorbed, consumed, shed
// (with a reason), or queued.
func runFailover(out io.Writer, clients, txns, chains, shards int, seed uint64,
	drop, dup float64, hashName, faultName string, failShard int, failAt, failFor float64) error {
	// Pinned to sequent per-shard tables like the sharded workload
	// (BENCH_failover.json is defined over them), resolved through the
	// shared selection helper.
	sel, err := discipline.Select("sequent", hashName, chains)
	if err != nil {
		return err
	}
	var fault chaos.ShardFault
	switch faultName {
	case "crash":
		fault = chaos.ShardCrash
	case "stall":
		fault = chaos.ShardStall
	case "wedge":
		fault = chaos.ShardWedge
	case "slow":
		fault = chaos.ShardSlow
	default:
		return fmt.Errorf("unknown -fault %q (crash, stall, wedge, slow)", faultName)
	}
	if shards < 2 {
		return fmt.Errorf("failover needs at least 2 shards, got %d", shards)
	}
	mkCfg := func(server engine.LossyServer) engine.LossyConfig {
		return engine.LossyConfig{
			Clients: clients,
			Txns:    txns,
			Seed:    seed,
			Link: engine.LinkConfig{
				Seed:     seed * 2654435761,
				DropRate: drop,
				DupRate:  dup,
				Latency:  0.01,
				Jitter:   0.004,
			},
			RTO:            0.25,
			MaxRetries:     40,
			MSL:            0.5,
			MaxVirtualTime: 3600,
			Server:         server,
		}
	}
	mkSet := func() (*shard.StackSet, error) {
		return shard.NewStackSet(wire.MakeAddr(10, 0, 0, 1), shard.Config{
			Shards:     shards,
			NewDemuxer: sel.PerShard(),
			Seed:       seed,
		})
	}

	base, err := sel.New()
	if err != nil {
		return err
	}
	baseline, err := engine.RunLossyExchange(base, mkCfg(nil))
	if err != nil {
		return err
	}
	if !baseline.Completed {
		return fmt.Errorf("single-stack baseline did not complete (t=%.1fs)", baseline.VirtualTime)
	}

	// Pick the victim: an explicit -failshard, or the shard the probe
	// run (same seeds, so same steering) shows carrying the most
	// traffic — the worst shard to lose.
	if failShard < 0 {
		probe, err := mkSet()
		if err != nil {
			return err
		}
		pres, err := engine.RunLossyExchange(nil, mkCfg(probe))
		if err != nil {
			return err
		}
		if !pres.Completed {
			return fmt.Errorf("probe run did not complete (t=%.1fs)", pres.VirtualTime)
		}
		failShard = 0
		for i, n := range probe.Steered {
			if n > probe.Steered[failShard] {
				failShard = i
			}
		}
		if failAt <= 0 {
			failAt = pres.VirtualTime * 0.4
		}
	}
	if failAt <= 0 {
		failAt = 1.0
	}

	set, err := mkSet()
	if err != nil {
		return err
	}
	// Crash and stall are fail-stop: the fault holds until the drain
	// decommissions the shard. Wedge only degrades — a shard wedged
	// forever sheds its connections' frames forever — so it defaults to
	// a transient window the retransmission machinery can ride out.
	until := chaos.Forever
	if failFor > 0 {
		until = failAt + failFor
	} else if fault == chaos.ShardWedge {
		until = failAt + 2
	}
	injector := chaos.NewShardInjector(chaos.ShardRule{
		Fault: fault, Shard: failShard, From: failAt, Until: until, MaxConsume: 1,
	})
	set.SetFaultFunc(injector.Func())

	res, err := engine.RunLossyExchange(nil, mkCfg(set))
	if err != nil {
		return err
	}

	window := "forever"
	if until < chaos.Forever {
		window = fmt.Sprintf("%.2fs", until)
	}
	fmt.Fprintf(out, "workload=failover shards=%d fault=%s failshard=%d window=[%.2fs, %s) clients=%d txns=%d drop=%.0f%% dup=%.0f%% chains=%d\n\n",
		shards, fault, failShard, failAt, window, clients, txns, drop*100, dup*100, chains)

	conformant := res.Completed && len(res.Responses) == len(baseline.Responses)
	if conformant {
		for i := range res.Responses {
			if !bytes.Equal(res.Responses[i], baseline.Responses[i]) {
				conformant = false
				break
			}
		}
	}
	acc, st := set.Accounting(), set.Stats()

	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "shard\thealth\tsteered\tpcbs")
	for i := 0; i < set.Shards(); i++ {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\n", i, set.Health(i), set.Steered[i], set.Shard(i).Demuxer().Len())
	}
	w.Flush()

	fmt.Fprintf(out, "\ncompleted=%v conformant=%v vtime=%.1fs inflicted=[%s]\n",
		res.Completed, conformant, res.VirtualTime, injector.Summary())
	fmt.Fprintf(out, "drains=%d drained-conns=%d salvaged-frames=%d drain-at=%.2fs recovery=%.3fs\n",
		st.Drains, st.DrainedConns, st.SalvagedFrames, set.LastDrainAt, st.LastDrainRecovery)
	fmt.Fprintf(out, "shed: inbox-full=%d handoff-full=%d backlog-full=%d (events: inbox=%d)\n",
		st.ShedInboxFull, st.ShedHandoffFull, st.ShedBacklogFull, set.InboxFullEvents)
	fmt.Fprintf(out, "accounting: in=%d absorbed=%d consumed=%d shed=%d queued=%d balanced=%v\n",
		acc.FramesIn, acc.Absorbed, acc.Consumed, acc.Shed, acc.Queued, acc.Balanced())

	if !res.Completed {
		return fmt.Errorf("faulted exchange did not complete (t=%.1fs)", res.VirtualTime)
	}
	if !conformant {
		return fmt.Errorf("responses diverged from the single-stack baseline under %s failover", fault)
	}
	if !acc.Balanced() {
		return fmt.Errorf("conservation ledger unbalanced: %+v", acc)
	}
	// Crash and stall are fail-stop faults: the watchdog must have
	// detected and drained the victim. Wedge and slow degrade only.
	if fault == chaos.ShardCrash || fault == chaos.ShardStall {
		if !set.Drained(failShard) {
			return fmt.Errorf("shard %d was never drained (health=%s)", failShard, set.Health(failShard))
		}
	} else if st.Drains != 0 {
		return fmt.Errorf("%s must degrade, not drain (drains=%d)", fault, st.Drains)
	}
	return nil
}
