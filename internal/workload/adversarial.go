// Package workload holds the adversarial scenario behind `demuxsim
// -workload adversarial`: RunAdversarial runs it and returns a structured
// result, and demuxsim prints it (EXP-ADVERSARIAL's golden).
package workload

import (
	"tcpdemux/internal/chaos"
	"tcpdemux/internal/core"
	"tcpdemux/internal/discipline"
	"tcpdemux/internal/engine"
	"tcpdemux/internal/hashfn"
	"tcpdemux/internal/telemetry"
	"tcpdemux/internal/wire"
)

// AdversarialBenign is the size of the well-behaved client population
// every table holds before the attack arrives.
const AdversarialBenign = 400

// AdversarialBacklog is the flooded listener's backlog bound.
const AdversarialBacklog = 64

// AdversarialConfig parameterizes the adversarial scenario.
type AdversarialConfig struct {
	Chains int
	Seed   uint64
	// Hash names the unkeyed function the attacker collides under.
	Hash string
	// AttackN colliding tuples are inserted into each table; FloodN
	// spoofed SYNs are fired at the listener.
	AttackN int
	FloodN  int
	// Cookies arms SYN cookies on the flooded listener.
	Cookies bool
	// Registry receives every metric the run produces — per-table
	// examined histograms, chain-skew gauges, rekey counts, cookie
	// counters and per-reason drops land in one snapshot. Required.
	Registry *telemetry.Registry
}

// AdversarialTable is one table's measured attack response. Table is its
// registry label, Title its human-readable heading.
type AdversarialTable struct {
	Table        string  `json:"table"`
	Title        string  `json:"-"`
	BenignMean   float64 `json:"benignMean"`
	AttackedMean float64 `json:"attackedMean"`
	WorstLookup  int     `json:"worstLookup"`
	Rekeys       int     `json:"rekeys"`
	ChainsBefore int     `json:"chainsBefore"`
	ChainsAfter  int     `json:"chainsAfter"`
	ExaminedP50  float64 `json:"examinedP50"`
	ExaminedP90  float64 `json:"examinedP90"`
	ExaminedP99  float64 `json:"examinedP99"`
}

// AdversarialFlood summarizes the SYN-flood half of the run: whether the
// legitimate client connected and transacted mid-flood, and what the
// listener's defenses counted (the embedded engine counters).
type AdversarialFlood struct {
	ClientEstablished bool `json:"clientEstablished"`
	ClientEchoOK      bool `json:"clientEchoOK"`
	TablePCBs         int  `json:"tablePCBs"`
	engine.StackStats
}

// AdversarialResult is the scenario's outcome. Flight is the flight
// recorder's capture of part 1's lookups, one virtual tick apiece, so it
// is totally ordered and deterministic per seed.
type AdversarialResult struct {
	Tables []AdversarialTable `json:"tables"`
	Flood  AdversarialFlood   `json:"flood"`
	Flight []telemetry.Event  `json:"-"`
}

// RunAdversarial mounts the collision attack against an undefended table
// and AutoSequent, which defends itself, then the spoofed SYN flood against
// a bounded listener backlog. Part 1's figure of merit is the mean PCBs
// examined per lookup before and under attack; part 2's is whether a
// legitimate client completes its handshake and a transaction mid-flood.
func RunAdversarial(cfg AdversarialConfig) (*AdversarialResult, error) {
	chains, seed, reg := cfg.Chains, cfg.Seed, cfg.Registry
	victim, err := hashfn.ByName(cfg.Hash)
	if err != nil {
		return nil, err
	}
	rec := telemetry.NewFlightRecorder(4096)
	benign := hashfn.RandomClients(AdversarialBenign, seed^0xbe9)
	popN := cfg.AttackN
	if cfg.FloodN > popN {
		popN = cfg.FloodN
	}
	population, err := hashfn.AttackPopulation(victim, chains, int(seed%uint64(chains)), popN)
	if err != nil {
		return nil, err
	}
	attack := population[:cfg.AttackN]

	// Part 1 measures a bare SequentHash (no watchdog, no growth) beside
	// AutoSequent, whose watchdog rekeys it under keys drawn from seed.
	sel, err := discipline.Select("auto-sequent", cfg.Hash, chains)
	if err != nil {
		return nil, err
	}
	sel.Seed = seed
	d, err := sel.New()
	if err != nil {
		return nil, err
	}
	defended := d.(*core.AutoSequent)
	type attackTable interface {
		core.Demuxer
		NumChains() int
	}
	tables := []struct {
		name, title string
		d           attackTable
		rekeys      func() int
	}{
		{"sequent-undefended", "sequent (undefended)", core.NewSequentHash(chains, victim), func() int { return 0 }},
		{"guarded-sequent", "guarded-sequent", defended, func() int { return defended.Rekeys }},
	}

	res := &AdversarialResult{}
	vt := 0.0
	for _, tb := range tables {
		d, m := tb.d, telemetry.NewDemuxMetrics(reg, tb.name)
		if err := d.Insert(core.NewListenPCB(core.ListenKey(hashfn.ServerEndpoint.Addr, hashfn.ServerEndpoint.Port))); err != nil {
			return nil, err
		}
		keys := make([]core.Key, len(benign), len(benign)+len(attack))
		for i, tu := range benign {
			keys[i] = core.KeyFromTuple(tu)
			if err := d.Insert(core.NewPCB(keys[i])); err != nil {
				return nil, err
			}
		}
		meanOver := func(keys []core.Key) float64 {
			before := *d.Stats()
			for _, k := range keys {
				r := d.Lookup(k, core.DirData)
				m.Observe(r)
				vt++
				rec.Record(telemetry.Event{
					Time:       vt,
					Tuple:      k.Tuple(),
					Discipline: tb.title,
					Chain:      -1,
					Examined:   int32(r.Examined),
					Hit:        r.CacheHit,
					Wildcard:   r.PCB != nil && r.Wildcard,
					Miss:       r.PCB == nil,
				})
			}
			after := *d.Stats()
			if after.Lookups == before.Lookups {
				return 0
			}
			return float64(after.Examined-before.Examined) / float64(after.Lookups-before.Lookups)
		}
		row := AdversarialTable{Table: tb.name, Title: tb.title, ChainsBefore: d.NumChains()}
		row.BenignMean = meanOver(keys)
		for _, tu := range attack {
			k := core.KeyFromTuple(tu)
			if err := d.Insert(core.NewPCB(k)); err != nil {
				return nil, err
			}
			keys = append(keys, k)
		}
		row.AttackedMean = meanOver(keys)
		row.WorstLookup = d.Stats().MaxExamined
		row.Rekeys = tb.rekeys()
		row.ChainsAfter = d.NumChains()
		h := m.ExaminedSnapshot()
		row.ExaminedP50, row.ExaminedP90, row.ExaminedP99 = h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99)
		res.Tables = append(res.Tables, row)
	}
	res.Flight = rec.Drain()
	// The table has not changed since its last insert, so its counters and
	// chains are what the watchdog last checked.
	l := telemetry.L("table", "guarded-sequent")
	reg.Counter("overload_rekeys_total", l).Add(uint64(defended.Rekeys))
	reg.Gauge("overload_chain_skew", l).Set(defended.Skew())
	reg.Gauge("overload_chains", l).Set(float64(defended.NumChains()))

	// Part 2: the same collision population as wire traffic.
	frames, err := chaos.SynFloodFrames(population[:cfg.FloodN])
	if err != nil {
		return nil, err
	}
	server := engine.NewStack(hashfn.ServerEndpoint.Addr, core.NewSequentHash(chains, nil), seed|1)
	server.SetTelemetry(reg)
	server.SetBacklog(AdversarialBacklog)
	server.SynCookies = cfg.Cookies
	if err := server.Listen(hashfn.ServerEndpoint.Port, func(_ *engine.Conn, p []byte) []byte {
		return append([]byte("ok:"), p...)
	}); err != nil {
		return nil, err
	}
	deliver := func(fs [][]byte) {
		for _, f := range fs {
			server.Deliver(f) // spoofed traffic: errors are the defense working
			server.Drain()
		}
	}
	deliver(frames[:cfg.FloodN/2])

	// Mid-flood, a legitimate client tries to connect and transact.
	client := engine.NewStack(wire.MakeAddr(10, 0, 0, 99), core.NewMapDemux(), seed+2)
	conn, err := client.Connect(hashfn.ServerEndpoint.Addr, hashfn.ServerEndpoint.Port, 40000, nil)
	if err != nil {
		return nil, err
	}
	if _, err := engine.Pump(client, server); err != nil {
		return nil, err
	}
	deliver(frames[cfg.FloodN/2:])
	res.Flood = AdversarialFlood{ClientEstablished: conn.State() == core.StateEstablished}
	if res.Flood.ClientEstablished {
		if err := conn.Send([]byte("ping")); err == nil {
			if _, err := engine.Pump(client, server); err == nil {
				res.Flood.ClientEchoOK = string(conn.Receive()) == "ok:ping"
			}
		}
	}
	res.Flood.TablePCBs = server.Demuxer().Len()
	res.Flood.StackStats = server.Stats()
	return res, nil
}
