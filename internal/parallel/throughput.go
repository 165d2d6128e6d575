package parallel

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tcpdemux/internal/core"
	"tcpdemux/internal/rng"
	"tcpdemux/internal/tpca"
)

// Op is one inbound packet event of a recorded lookup stream: the key the
// server demultiplexes on and whether the packet was a transaction (data)
// or a pure acknowledgement.
type Op struct {
	Key core.Key
	Dir core.Direction
}

// TPCAStream records the server-side inbound packet stream of one TPC/A
// simulation run — the realistic read-mostly key sequence the paper's
// workload produces, response-interval locality included — for replay by
// MeasureThroughput. users and txnsPerUser size the run; the stream holds
// two inbound packets (transaction, ack) per transaction, warm-up
// included.
func TPCAStream(users, txnsPerUser int, seed uint64) ([]Op, error) {
	var stream []Op
	cfg := tpca.Config{
		Users: users, ResponseTime: 0.2, RTT: 0.001, Seed: seed,
		MeasuredTxns: txnsPerUser * users,
		Observer: func(_ float64, key core.Key, send, ack bool) {
			if send {
				return // outbound: not a demultiplexing event
			}
			dir := core.DirData
			if ack {
				dir = core.DirAck
			}
			stream = append(stream, Op{Key: key, Dir: dir})
		},
	}
	if _, err := tpca.Run(core.NewMapDemux(), cfg); err != nil {
		return nil, err
	}
	return stream, nil
}

// ThroughputConfig parameterizes one MeasureThroughput run.
type ThroughputConfig struct {
	// Workers is the number of concurrent goroutines (>= 1).
	Workers int
	// OpsPerWorker is the number of operations each worker performs.
	OpsPerWorker int
	// Stream is the lookup key sequence. Workers replay it from evenly
	// spaced starting offsets, wrapping around.
	Stream []Op
	// ReadFraction is the probability an operation is a lookup; the
	// remainder churn (remove + reinsert) keys from the worker's private
	// ChurnKeys slice. 0 means 1.0 (pure lookups).
	ReadFraction float64
	// ChurnKeys[w] are worker w's private churn keys. Required when
	// ReadFraction < 1; keeping the slices disjoint keeps the final PCB
	// set deterministic.
	ChurnKeys [][]core.Key
	// Seed seeds the per-worker operation-mix RNGs.
	Seed uint64
}

func (c ThroughputConfig) validate() error {
	switch {
	case c.Workers < 1:
		return errors.New("parallel: need at least one worker")
	case c.OpsPerWorker < 1:
		return errors.New("parallel: need at least one op per worker")
	case len(c.Stream) == 0:
		return errors.New("parallel: empty lookup stream")
	case c.ReadFraction < 0 || c.ReadFraction > 1:
		return fmt.Errorf("parallel: read fraction %v out of range", c.ReadFraction)
	case c.ReadFraction != 0 && c.ReadFraction < 1 && len(c.ChurnKeys) < c.Workers:
		return errors.New("parallel: churn requires per-worker churn keys")
	}
	return nil
}

// ThroughputResult reports one measured run.
type ThroughputResult struct {
	// Ops is the total operations performed (lookups + churn mutations).
	Ops int
	// Elapsed is the wall-clock time of the measured section.
	Elapsed time.Duration
	// NsPerOp and OpsPerSec are the derived rates.
	NsPerOp   float64
	OpsPerSec float64
	// Stats is the statistics snapshot after the run, filled by the
	// entry point that owns the tables.
	Stats core.Stats
}

// Worker is one goroutine's share of a Replay: the table it drives, the
// stream it replays (from offset Pos, wrapping) and how many operations
// it performs. A worker with no stream or no ops performs none.
type Worker struct {
	Table  core.Table
	Stream []Op
	Pos    int
	Ops    int
	// Churn, when non-empty, makes each operation a remove-or-reinsert of
	// one of these keys with probability 1-Read, drawn from a Seed-seeded
	// RNG; otherwise every operation is a lookup.
	Churn []core.Key
	Read  float64
	Seed  uint64
	// Done, when non-nil, runs on the worker's goroutine after its last
	// operation, inside the measured section (a LocalDemux flush).
	Done func()
}

// run is the replay loop every throughput measurement shares: walk the
// stream one lookup at a time and interleave churn. It returns the
// operations performed.
func (w Worker) run(start <-chan struct{}) int {
	if len(w.Stream) == 0 {
		return 0
	}
	var src *rng.Source
	if len(w.Churn) > 0 {
		src = rng.New(w.Seed)
	}
	pos := w.Pos
	<-start
	for i := 0; i < w.Ops; i++ {
		if src != nil && src.Float64() >= w.Read {
			k := w.Churn[src.Intn(len(w.Churn))]
			if !w.Table.Remove(k) {
				_ = w.Table.Insert(core.NewPCB(k)) // k was just absent from this worker's private churn set
			}
			continue
		}
		op := w.Stream[pos]
		pos++
		if pos == len(w.Stream) {
			pos = 0
		}
		w.Table.Lookup(op.Key, op.Dir)
	}
	if w.Done != nil {
		w.Done()
	}
	return w.Ops
}

// Replay runs every worker on its own goroutine, released together, and
// reports the operations actually performed over the wall-clock window.
// MeasureThroughput (one shared table × W workers) and shard.MeasureSharded
// (N private tables × N workers) are both this loop.
func Replay(workers []Worker) ThroughputResult {
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		ran   = make([]int, len(workers))
	)
	for i := range workers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ran[i] = workers[i].run(start)
		}(i)
	}
	t0 := time.Now() //demux:wallclock throughput is the one legitimate wall-clock consumer: it reports real elapsed time, not virtual time
	close(start)
	wg.Wait()
	res := ThroughputResult{Elapsed: time.Since(t0)} //demux:wallclock closes the measured section opened at t0 above
	for _, n := range ran {
		res.Ops += n
	}
	if res.Elapsed > 0 && res.Ops > 0 {
		res.NsPerOp = float64(res.Elapsed.Nanoseconds()) / float64(res.Ops)
		res.OpsPerSec = float64(res.Ops) / res.Elapsed.Seconds()
	}
	return res
}

// MeasureThroughput drives d with cfg.Workers goroutines replaying the
// recorded stream and returns the aggregate operation rate. The demuxer
// must already be populated with the stream's PCBs; lookups that miss are
// fine (they exercise the listener path) but are still counted as one op.
func MeasureThroughput(d core.Concurrent, cfg ThroughputConfig) (ThroughputResult, error) {
	if err := cfg.validate(); err != nil {
		return ThroughputResult{}, err
	}
	workers := make([]Worker, cfg.Workers)
	for w := range workers {
		workers[w] = Worker{
			Table:  d,
			Stream: cfg.Stream,
			Pos:    (w * len(cfg.Stream)) / cfg.Workers,
			Ops:    cfg.OpsPerWorker,
			Read:   cfg.ReadFraction,
			Seed:   cfg.Seed + uint64(w)*7919 + 1,
		}
		if cfg.ReadFraction != 0 && cfg.ReadFraction < 1 {
			workers[w].Churn = cfg.ChurnKeys[w]
		}
	}
	res := Replay(workers)
	res.Stats = d.Snapshot()
	return res, nil
}
