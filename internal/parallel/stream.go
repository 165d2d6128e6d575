package parallel

import (
	"tcpdemux/internal/core"
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
// workload produces, response-interval locality included — for
// BenchmarkParallelTPCA to replay against a shared table. users and
// txnsPerUser size the run; the stream holds two inbound packets
// (transaction, ack) per transaction, warm-up included.
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
