// Package tpca implements the TPC/A communications workload of paper §2
// as a discrete-event simulation and drives any core.Demuxer with it.
//
// Each of N simulated users cycles forever through:
//
//  1. a transaction packet arrives at the server (demux lookup, data);
//     the server immediately transmits the transport-level
//     acknowledgement for the query (send notification),
//  2. R seconds later the server transmits the response (send
//     notification),
//  3. D seconds after that the client's transport-level acknowledgement
//     for the response arrives (demux lookup, ack),
//  4. the user thinks for a truncated-negative-exponential time T and the
//     next transaction arrives.
//
// That is the paper's four-packets-per-transaction model (§3): two inbound
// packets require PCB lookups, two outbound packets touch only the
// send-side cache. The paper's analysis was validated against this
// simulation, which the paper itself did not have ("these approximations
// have been qualitatively confirmed by benchmarks").
package tpca

import (
	"errors"
	"fmt"

	"tcpdemux/internal/core"
	"tcpdemux/internal/rng"
	"tcpdemux/internal/sim"
	"tcpdemux/internal/stats"
	"tcpdemux/internal/wire"
)

// TPC/A defaults (paper §2).
const (
	// DefaultThinkMean is the minimum mean think time the benchmark
	// allows, and the value the paper's analysis assumes.
	DefaultThinkMean = 10.0
	// DefaultThinkMaxFactor caps the truncated distribution at ten times
	// the mean, the benchmark's minimum maximum.
	DefaultThinkMaxFactor = 10.0
)

// Config parameterizes one simulation run.
type Config struct {
	// Users is N, the number of simulated users (one TCP connection each).
	Users int
	// ResponseTime is R in seconds.
	ResponseTime float64
	// RTT is the network round-trip delay D in seconds.
	RTT float64
	// Think overrides the think-time distribution. Nil selects the TPC/A
	// truncated negative exponential with ThinkMean.
	Think rng.Dist
	// ThinkMean overrides the think-time mean (DefaultThinkMean if zero).
	// Ignored when Think is set.
	ThinkMean float64
	// Seed seeds the deterministic RNG.
	Seed uint64
	// WarmupTxns is the number of transactions to run before statistics
	// collection starts (defaults to 3 per user).
	WarmupTxns int
	// MeasuredTxns is the number of transactions measured after warm-up
	// (defaults to 25 per user).
	MeasuredTxns int
	// WireLevel, when set, drives every inbound lookup from real packet
	// bytes: each arrival is a serialized IPv4/TCP frame whose tuple is
	// extracted on the zero-allocation fast path before the PCB lookup,
	// exercising the full receive path inside the simulation. Costs are
	// identical to the fast path; only wall-clock time differs.
	WireLevel bool
	// Observer, if non-nil, receives every server-side packet event —
	// inbound arrivals and outbound transmissions, warm-up included — in
	// virtual-time order. The trace package uses this to record runs for
	// later replay.
	Observer func(t float64, key core.Key, send, ack bool)
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.ThinkMean == 0 {
		c.ThinkMean = DefaultThinkMean
	}
	if c.Think == nil {
		c.Think = rng.TruncExpDist{M: c.ThinkMean, Max: DefaultThinkMaxFactor * c.ThinkMean}
	}
	if c.WarmupTxns == 0 {
		c.WarmupTxns = 3 * c.Users
	}
	if c.MeasuredTxns == 0 {
		c.MeasuredTxns = 25 * c.Users
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Users < 1:
		return errors.New("tpca: need at least one user")
	case c.ResponseTime < 0:
		return errors.New("tpca: negative response time")
	case c.RTT < 0:
		return errors.New("tpca: negative round-trip time")
	}
	return nil
}

// TPS returns the nominal transaction rate of the configuration,
// Users/(mean cycle time).
func (c Config) TPS() float64 {
	c = c.withDefaults()
	cycle := c.Think.Mean() + c.ResponseTime + c.RTT
	return float64(c.Users) / cycle
}

// ScalingOK reports whether the configuration satisfies the TPC/A scaling
// rule that the user population be at least ten times the transaction rate.
func (c Config) ScalingOK() bool {
	return float64(c.Users) >= 10*c.TPS()
}

// Result carries the measured statistics of one run.
type Result struct {
	// Algorithm is the demuxer's Name.
	Algorithm string
	// Config echoes the (defaulted) run parameters.
	Config Config
	// Overall aggregates PCBs examined per inbound packet.
	Overall stats.Summary
	// Txn aggregates examinations for transaction (data) packets only.
	Txn stats.Summary
	// Ack aggregates examinations for response acknowledgements only.
	Ack stats.Summary
	// CacheHitRate is the fraction of measured lookups satisfied by a
	// one-entry cache.
	CacheHitRate float64
	// Transactions is the number of measured transactions.
	Transactions uint64
	// Hist is the distribution of per-lookup examination counts over the
	// measured phase, for tail quantiles (Quantile method).
	Hist *stats.Histogram
	// SimTime is the virtual duration of the measured phase in seconds.
	SimTime float64
}

// Quantile returns the q-th quantile of the per-lookup examination count
// over the measured phase.
func (r *Result) Quantile(q float64) float64 {
	if r.Hist == nil {
		return 0
	}
	return r.Hist.Quantile(q)
}

// String renders the headline numbers.
func (r *Result) String() string {
	return fmt.Sprintf("%s: N=%d R=%gs D=%gs mean=%.1f (txn %.1f, ack %.1f) hit=%.2f%% txns=%d",
		r.Algorithm, r.Config.Users, r.Config.ResponseTime, r.Config.RTT,
		r.Overall.Mean(), r.Txn.Mean(), r.Ack.Mean(), r.CacheHitRate*100, r.Transactions)
}

// ServerAddr is the database server's address and listening port used for
// all generated connections.
var ServerAddr = struct {
	Addr wire.Addr
	Port uint16
}{wire.MakeAddr(10, 0, 0, 1), 1521}

// UserKey returns the connection key for user i: terminal addresses are
// assigned sequentially across /16s with ephemeral ports from a counter,
// the structured population a real terminal farm produces.
func UserKey(i int) core.Key {
	return core.Key{
		LocalAddr:  ServerAddr.Addr,
		LocalPort:  ServerAddr.Port,
		RemoteAddr: wire.MakeAddr(10, byte(1+i>>16), byte(i>>8), byte(i)),
		RemotePort: uint16(1024 + i%60000),
	}
}

// user is the per-user simulation state.
type user struct {
	pcb *core.PCB
	key core.Key
	// txnFrame and ackFrame are the serialized inbound packets used in
	// wire-level mode.
	txnFrame []byte
	ackFrame []byte
}

// buildFrames serializes the user's two inbound packet shapes.
func (u *user) buildFrames() error {
	tu := u.key.Tuple()
	ip := wire.IPv4Header{TTL: 64, Src: tu.SrcAddr, Dst: tu.DstAddr}
	txn, err := wire.BuildSegment(ip, wire.TCPHeader{
		SrcPort: tu.SrcPort, DstPort: tu.DstPort,
		Flags: wire.FlagACK | wire.FlagPSH, Window: 8192,
	}, []byte("BEGIN; UPDATE accounts ...; COMMIT"))
	if err != nil {
		return err
	}
	ack, err := wire.BuildSegment(ip, wire.TCPHeader{
		SrcPort: tu.SrcPort, DstPort: tu.DstPort,
		Flags: wire.FlagACK, Window: 8192,
	}, nil)
	if err != nil {
		return err
	}
	u.txnFrame, u.ackFrame = txn, ack
	return nil
}

// wireKey runs the receive fast path over a stored frame.
func wireKey(frame []byte) (core.Key, error) {
	tu, err := wire.ExtractTuple(frame)
	if err != nil {
		return core.Key{}, err
	}
	return core.KeyFromTuple(tu), nil
}

// Run drives the demuxer with the TPC/A workload and returns the measured
// statistics. The demuxer should be empty; Run inserts one PCB per user.
func Run(d core.Demuxer, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	src := rng.New(cfg.Seed)
	users := make([]*user, cfg.Users)
	for i := range users {
		u := &user{key: UserKey(i)}
		u.pcb = core.NewPCB(u.key)
		if cfg.WireLevel {
			if err := u.buildFrames(); err != nil {
				return nil, fmt.Errorf("tpca: building frames for user %d: %w", i, err)
			}
		}
		if err := d.Insert(u.pcb); err != nil {
			return nil, fmt.Errorf("tpca: inserting PCB %d: %w", i, err)
		}
		users[i] = u
	}

	res := &Result{Algorithm: d.Name(), Config: cfg}
	// One bucket per examination count up to the worst case (full table
	// plus cache probes), capped to bound memory at large N.
	buckets := cfg.Users + 3
	if buckets > 4096 {
		buckets = 4096
	}
	res.Hist = stats.NewHistogram(0, float64(cfg.Users+3), buckets)
	var (
		kernel     sim.Sim
		measuring  bool
		txnsTotal  uint64
		measureEnd = cfg.WarmupTxns + cfg.MeasuredTxns
		startTime  float64
		schedErr   error
	)

	schedule := func(delay float64, ev sim.Event) {
		if schedErr != nil {
			return
		}
		if _, err := kernel.After(delay, ev); err != nil {
			schedErr = err
		}
	}

	var txnArrive func(u *user) sim.Event
	txnArrive = func(u *user) sim.Event {
		return func(now float64) {
			if int(txnsTotal) >= measureEnd {
				return // drain: stop regenerating work
			}
			txnsTotal++
			if !measuring && int(txnsTotal) > cfg.WarmupTxns {
				measuring = true
				startTime = now
				d.Stats().Reset()
			}
			// Inbound transaction packet.
			if cfg.Observer != nil {
				cfg.Observer(now, u.key, false, false)
			}
			lookupKey := u.key
			if cfg.WireLevel {
				var err error
				if lookupKey, err = wireKey(u.txnFrame); err != nil {
					schedErr = err
					return
				}
			}
			r := d.Lookup(lookupKey, core.DirData)
			if r.PCB != u.pcb {
				schedErr = fmt.Errorf("tpca: lookup for %v returned wrong PCB", u.key)
				return
			}
			if measuring {
				res.Overall.Add(float64(r.Examined))
				res.Txn.Add(float64(r.Examined))
				res.Hist.Add(float64(r.Examined))
				res.Transactions++
			}
			// Transport-level acknowledgement for the query goes out now.
			if cfg.Observer != nil {
				cfg.Observer(now, u.key, true, true)
			}
			d.NotifySend(u.pcb)
			// Response transmitted R later.
			schedule(cfg.ResponseTime, func(sendTime float64) {
				if cfg.Observer != nil {
					cfg.Observer(sendTime, u.key, true, false)
				}
				d.NotifySend(u.pcb)
				// Client's ack arrives D after the response left.
				schedule(cfg.RTT, func(ackTime float64) {
					if cfg.Observer != nil {
						cfg.Observer(ackTime, u.key, false, true)
					}
					ackKey := u.key
					if cfg.WireLevel {
						var err error
						if ackKey, err = wireKey(u.ackFrame); err != nil {
							schedErr = err
							return
						}
					}
					ar := d.Lookup(ackKey, core.DirAck)
					if ar.PCB != u.pcb {
						schedErr = fmt.Errorf("tpca: ack lookup for %v returned wrong PCB", u.key)
						return
					}
					if measuring {
						res.Overall.Add(float64(ar.Examined))
						res.Ack.Add(float64(ar.Examined))
						res.Hist.Add(float64(ar.Examined))
					}
					// Think, then enter the next transaction.
					schedule(cfg.Think.Draw(src), txnArrive(u))
				})
			})
		}
	}

	// Stagger initial arrivals across one mean cycle so the system starts
	// near steady state; warm-up absorbs the residual transient.
	cycle := cfg.Think.Mean() + cfg.ResponseTime + cfg.RTT
	for _, u := range users {
		schedule(src.Float64()*cycle, txnArrive(u))
	}
	kernel.Run()
	if schedErr != nil {
		return nil, schedErr
	}
	res.SimTime = kernel.Now() - startTime
	st := d.Stats()
	if st.Lookups > 0 {
		res.CacheHitRate = st.HitRate()
	}
	return res, nil
}

// RunAlgorithms runs the same configuration against freshly constructed
// instances of the named algorithms, returning results in order.
func RunAlgorithms(names []string, dcfg core.Config, cfg Config) ([]*Result, error) {
	out := make([]*Result, 0, len(names))
	for _, n := range names {
		d, err := core.New(n, dcfg)
		if err != nil {
			return nil, err
		}
		r, err := Run(d, cfg)
		if err != nil {
			return nil, fmt.Errorf("tpca: running %s: %w", n, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// Replicated aggregates per-seed means from repeated runs of the same
// configuration, giving an honest confidence interval over independent
// replications (each run's internal samples are correlated; across-seed
// variation is not).
type Replicated struct {
	Algorithm string
	// PerSeed holds one overall mean per replication.
	PerSeed stats.Summary
}

// Mean returns the grand mean across replications.
func (r *Replicated) Mean() float64 { return r.PerSeed.Mean() }

// CI95 returns the 95% half-width across replications.
func (r *Replicated) CI95() float64 { return r.PerSeed.CI95() }

// RunReplicated runs the configuration reps times with consecutive seeds
// against fresh demuxers built by the constructor.
func RunReplicated(build func() (core.Demuxer, error), cfg Config, reps int) (*Replicated, error) {
	if reps < 1 {
		return nil, errors.New("tpca: need at least one replication")
	}
	out := &Replicated{}
	for i := 0; i < reps; i++ {
		d, err := build()
		if err != nil {
			return nil, err
		}
		c := cfg
		c.Seed = cfg.Seed + uint64(i)*1000003 // decorrelate streams
		res, err := Run(d, c)
		if err != nil {
			return nil, err
		}
		out.Algorithm = res.Algorithm
		out.PerSeed.Add(res.Overall.Mean())
	}
	return out, nil
}
