package main

import (
	"fmt"

	"tcpdemux/internal/chaos"
	"tcpdemux/internal/core"
	"tcpdemux/internal/discipline"
	"tcpdemux/internal/engine"
	"tcpdemux/internal/shard"
	"tcpdemux/internal/wire"
)

// The failover workload measures the shard failure domain under virtual
// time, so unlike the other benchjson workloads its numbers are exact
// and reproducible: the "nsPerOp" each mode reports is a count of
// virtual-time ticks (one tick = 1 ms of virtual time, the engine's
// timer-wheel granularity), not wall-clock nanoseconds. That makes the
// whole document a golden: any change to it means the watchdog got
// slower to detect or the drain slower to recover in *simulated* time,
// an algorithmic change, not scheduler noise. It carries no host facts
// for the same reason.
const vtick = 1e-3

// failoverScenario is one measured failure story.
type failoverScenario struct {
	Name      string  `json:"name"`
	Fault     string  `json:"fault"`
	FailShard int     `json:"failShard"`
	FailAt    float64 `json:"failAtVirtualSec"`
	// Virtual-time latencies, in ticks (1 ms virtual each).
	DetectTicks   float64 `json:"detectTicks"`
	RecoverTicks  float64 `json:"recoverTicks"`
	CompleteTicks float64 `json:"completeTicks"`
	// Goodput in completed transactions per virtual second, windowed
	// around the outage: before the fault, fault-to-drain, after the
	// drain. The during/after dip and recovery is the degradation story.
	GoodputBefore float64 `json:"goodputBefore"`
	GoodputDuring float64 `json:"goodputDuring"`
	GoodputAfter  float64 `json:"goodputAfter"`
	// Drain and shed ledgers.
	Drains         uint64            `json:"drains"`
	DrainedConns   uint64            `json:"drainedConns"`
	SalvagedFrames uint64            `json:"salvagedFrames"`
	Shed           map[string]uint64 `json:"shed"`
	Accounting     shard.Accounting  `json:"accounting"`
}

// failoverReport is the -workload failover JSON document
// (BENCH_failover.json).
type failoverReport struct {
	Benchmark string             `json:"benchmark"`
	Config    map[string]any     `json:"config"`
	Results   []result           `json:"results"`
	Scenarios []failoverScenario `json:"scenarios"`
}

// failoverDrive holds one virtual-time run's raw outcome.
type failoverDrive struct {
	set      *shard.StackSet
	txnTimes []float64 // virtual completion time of every transaction
	endTime  float64
}

// driveFailover runs the full client population against an N-shard set
// under the acceptance loss process (20% drop, 10% dup), with an
// optional scripted shard fault, recording when every transaction
// completes. It is the TestRekeyMigratesMidExchange driver shape:
// client stack, seeded lossy link, stop-and-wait transactions, fixed
// 5 ms virtual step.
func driveFailover(shards, clients, txns, chains int, seed uint64,
	fault *chaos.ShardRule) (*failoverDrive, error) {
	const port = uint16(1521)
	sel, err := discipline.Select("sequent", "multiplicative", chains)
	if err != nil {
		return nil, err
	}
	set, err := shard.NewStackSet(wire.MakeAddr(10, 0, 0, 1), shard.Config{
		Shards:     shards,
		NewDemuxer: sel.PerShard(),
		Seed:       seed,
	})
	if err != nil {
		return nil, err
	}
	if fault != nil {
		set.SetFaultFunc(chaos.NewShardInjector(*fault).Func())
	}
	if err := set.Listen(port, func(_ *engine.Conn, p []byte) []byte {
		return append(append([]byte("ok<"), p...), '>')
	}); err != nil {
		return nil, err
	}
	set.SetTimers(0.25, 40, 0.5)
	set.SetBacklog(clients)

	client := engine.NewStack(wire.MakeAddr(10, 0, 0, 2), core.NewMapDemux(), seed+8)
	client.SetTimers(0.25, 40, 0.5)
	link := engine.NewLink(client, set, engine.LinkConfig{
		Seed: seed * 2654435761, DropRate: 0.20, DupRate: 0.10,
		Latency: 0.01, Jitter: 0.004,
	})

	conns := make([]*engine.Conn, clients)
	for i := range conns {
		c, err := client.ConnectEphemeral(set.Addr(), port, nil)
		if err != nil {
			return nil, err
		}
		conns[i] = c
	}

	d := &failoverDrive{set: set}
	sent := make([]bool, clients)
	txn := make([]int, clients)
	now := 0.0
	pump := func(c int) error {
		if conns[c].State() != core.StateEstablished {
			return nil
		}
		if r := conns[c].Receive(); r != nil {
			sent[c] = false
			txn[c]++
			d.txnTimes = append(d.txnTimes, now)
		}
		if !sent[c] && txn[c] < txns {
			if err := conns[c].Send([]byte{byte('a' + c%26), byte('0' + txn[c]%10)}); err != nil {
				return err
			}
			sent[c] = true
		}
		return nil
	}
	const maxVirtual = 2000.0
	for now < maxVirtual {
		done := true
		for c := range conns {
			if err := pump(c); err != nil {
				return nil, err
			}
			if txn[c] < txns {
				done = false
			}
		}
		if done {
			d.endTime = now
			return d, nil
		}
		now += 0.005
		if err := link.Shuttle(now); err != nil {
			return nil, err
		}
		client.Tick(now)
		set.Tick(now)
	}
	return nil, fmt.Errorf("failover drive did not complete within %.0f virtual seconds", maxVirtual)
}

// goodput counts transactions completed in [from, until) per virtual
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

// runFailover measures shard failure domains: detection latency, drain
// recovery, completion cost, and windowed goodput for a crash and a
// stall of the busiest shard, against the unfaulted sharded baseline —
// all in virtual time (see vtick), with the conservation ledger checked
// on every run.
func runFailover(opt options) (*failoverReport, error) {
	const shards = 4
	clients, txns := opt.Users, opt.TxnsPer
	if clients > 26 {
		clients = 26
	}
	if clients < 4 {
		clients = 8
	}
	if txns < 2 {
		txns = 12
	}

	// Unfaulted baseline: completion time, and the victim every faulted
	// run targets — the busiest shard, the worst one to lose.
	base, err := driveFailover(shards, clients, txns, opt.Chains, opt.Seed, nil)
	if err != nil {
		return nil, err
	}
	victim := 0
	for i, n := range base.set.Steered {
		if n > base.set.Steered[victim] {
			victim = i
		}
	}
	failAt := base.endTime * 0.4

	type scenario struct {
		name  string
		fault chaos.ShardFault
	}
	var results []result
	var scenarios []failoverScenario
	addResult := func(disc, mode string, ticks, rate float64) {
		rd := round{NsPerOp: ticks, LookupsPerSec: rate}
		results = append(results, result{
			Discipline: disc, Mode: mode, Unit: "vtick", Rounds: []round{rd}, Best: rd,
		})
	}
	addResult("failover-none", "complete", base.endTime/vtick,
		goodput(base.txnTimes, 0, base.endTime))

	for _, sc := range []scenario{
		{"failover-crash1of4", chaos.ShardCrash},
		{"failover-stall1of4", chaos.ShardStall},
	} {
		rule := chaos.ShardRule{
			Fault: sc.fault, Shard: victim, From: failAt, Until: chaos.Forever,
		}
		d, err := driveFailover(shards, clients, txns, opt.Chains, opt.Seed, &rule)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.name, err)
		}
		set, st := d.set, d.set.Stats()
		if st.Drains != 1 || !set.Drained(victim) {
			return nil, fmt.Errorf("%s: shard %d not drained (drains=%d health=%v)",
				sc.name, victim, st.Drains, set.Health(victim))
		}
		acc := set.Accounting()
		if !acc.Balanced() {
			return nil, fmt.Errorf("%s: unaccounted packet losses: %+v", sc.name, acc)
		}
		detect := set.LastDrainAt - failAt
		if detect <= 0 || detect > 2*shard.DefaultStallThreshold {
			return nil, fmt.Errorf("%s: detection latency %.3fs outside (0, %.1fs]",
				sc.name, detect, 2*shard.DefaultStallThreshold)
		}
		scenarios = append(scenarios, failoverScenario{
			Name: sc.name, Fault: sc.fault.String(), FailShard: victim, FailAt: failAt,
			DetectTicks:   detect / vtick,
			RecoverTicks:  st.LastDrainRecovery / vtick,
			CompleteTicks: d.endTime / vtick,
			GoodputBefore: goodput(d.txnTimes, 0, failAt),
			GoodputDuring: goodput(d.txnTimes, failAt, set.LastDrainAt),
			GoodputAfter:  goodput(d.txnTimes, set.LastDrainAt, d.endTime),
			Drains:        st.Drains, DrainedConns: st.DrainedConns,
			SalvagedFrames: st.SalvagedFrames,
			Shed: map[string]uint64{
				"inbox-full":   st.ShedInboxFull,
				"handoff-full": st.ShedHandoffFull,
				"backlog-full": st.ShedBacklogFull,
			},
			Accounting: acc,
		})
		addResult(sc.name, "detect", detect/vtick, 0)
		addResult(sc.name, "recover", st.LastDrainRecovery/vtick, 0)
		addResult(sc.name, "complete", d.endTime/vtick, goodput(d.txnTimes, 0, d.endTime))
	}

	return &failoverReport{
		Benchmark: "shard failure domains: watchdog detection, live drain, goodput (virtual time)",
		Config: map[string]any{
			"shards": shards, "clients": clients, "txnsPerClient": txns,
			"chains": opt.Chains, "seed": opt.Seed,
			"dropRate": 0.20, "dupRate": 0.10,
			"victim": victim, "failAtVirtualSec": failAt,
			"tickVirtualSec":    vtick,
			"stallThresholdSec": shard.DefaultStallThreshold,
		},
		Results:   results,
		Scenarios: scenarios,
	}, nil
}
