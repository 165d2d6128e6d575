package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"tcpdemux/internal/discipline"
	"tcpdemux/internal/engine"
	"tcpdemux/internal/shard"
	"tcpdemux/internal/wire"
)

// wedgeFor is how long a wedge lasts. Crash and stall are fail-stop and
// hold until the drain decommissions the shard; a wedge only degrades, and
// a shard wedged forever would shed its connections' frames forever, so it
// is a transient window the retransmission machinery rides out.
const wedgeFor = 2.0

// runFailover drives the shard failure-domain scenario end to end: the
// full lossy client population against an N-shard set, one shard failed
// mid-run, the health watchdog expected to detect a crash or stall and
// live-drain the victim's connections into the survivors. An unfaulted
// probe run on the same seeds picks the victim (its busiest shard) and the
// fault time (when the probe had completed 40% of its transactions), and is
// the reference for completion time and goodput. The run is held to the same
// conformance bar as the healthy sharded workload — application bytes
// identical to the unfaulted single-stack baseline — plus the conservation
// check: every frame accounted absorbed, consumed, shed (with a reason), or
// queued.
func runFailover(out io.Writer, clients, txns, chains, shards int, seed uint64,
	drop, dup float64, hashName, fault string) error {
	// Pinned to sequent per-shard tables like the sharded workload,
	// resolved through the shared selection helper.
	sel, err := discipline.Select("sequent", hashName, chains)
	if err != nil {
		return err
	}
	var verdict shard.FaultVerdict
	switch fault {
	case "crash":
		verdict.Crash = true
	case "stall":
		verdict.Stall = true
	case "wedge":
		verdict.Wedge = true
	default:
		return fmt.Errorf("unknown -fault %q (crash, stall, wedge)", fault)
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

	// The probe runs the same seeds unfaulted, so its steering matches the
	// faulted run's up to the fault. The victim is the shard carrying the
	// most traffic, the worst one to lose.
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
	victim := 0
	for i, n := range probe.Steered {
		if n > probe.Steered[victim] {
			victim = i
		}
	}
	failAt := pres.TxnTimes[len(pres.TxnTimes)*2/5]
	until := math.Inf(1)
	if verdict.Wedge {
		until = failAt + wedgeFor
	}

	set, err := mkSet()
	if err != nil {
		return err
	}
	inflicted := 0
	set.SetFaultFunc(func(sh int, now float64) shard.FaultVerdict {
		if sh != victim || now < failAt || now >= until {
			return shard.FaultVerdict{}
		}
		inflicted++
		return verdict
	})
	res, err := engine.RunLossyExchange(nil, mkCfg(set))
	if err != nil {
		return err
	}

	window := "forever"
	if !math.IsInf(until, 1) {
		window = fmt.Sprintf("%.2fs", until)
	}
	fmt.Fprintf(out, "workload=failover shards=%d fault=%s failshard=%d window=[%.2fs, %s) clients=%d txns=%d drop=%.0f%% dup=%.0f%% chains=%d\n\n",
		shards, fault, victim, failAt, window, clients, txns, drop*100, dup*100, chains)

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

	// The outage ends at the drain for a fail-stop fault and when the
	// window closes for a wedge.
	detect, outageEnd := 0.0, until
	if st.Drains > 0 {
		detect, outageEnd = set.LastDrainAt-failAt, set.LastDrainAt
	}
	fmt.Fprintf(out, "\ncompleted=%v conformant=%v vtime=%.1fs probe-vtime=%.1fs inflicted=%d\n",
		res.Completed, conformant, res.VirtualTime, pres.VirtualTime, inflicted)
	fmt.Fprintf(out, "drains=%d drained-conns=%d salvaged-frames=%d drain-at=%.2fs detect=%.3fs recovery=%.3fs\n",
		st.Drains, st.DrainedConns, st.SalvagedFrames, set.LastDrainAt, detect, st.LastDrainRecovery)
	fmt.Fprintf(out, "goodput txn/s: before=%.1f during=%.1f after=%.1f probe=%.1f\n",
		goodput(res.TxnTimes, 0, failAt), goodput(res.TxnTimes, failAt, outageEnd),
		goodput(res.TxnTimes, outageEnd, res.VirtualTime), goodput(pres.TxnTimes, 0, pres.VirtualTime))
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
	if verdict.Wedge {
		if st.Drains != 0 {
			return fmt.Errorf("wedge must degrade, not drain (drains=%d)", st.Drains)
		}
		return nil
	}
	// Crash and stall are fail-stop: the watchdog must have detected the
	// victim within twice the stall threshold and drained it, once.
	if st.Drains != 1 || !set.Drained(victim) {
		return fmt.Errorf("shard %d not drained once (drains=%d health=%s)", victim, st.Drains, set.Health(victim))
	}
	if detect <= 0 || detect > 2*shard.DefaultStallThreshold {
		return fmt.Errorf("detection latency %.3fs outside (0, %.1fs]", detect, 2*shard.DefaultStallThreshold)
	}
	return nil
}

// goodput counts the transactions completed in [from, until) per virtual
// second.
func goodput(times []float64, from, until float64) float64 {
	if until <= from {
		return 0
	}
	n := 0
	for _, t := range times {
		if t >= from && t < until {
			n++
		}
	}
	return float64(n) / (until - from)
}
