package main

import (
	"runtime"

	"tcpdemux/internal/discipline"
)

// spec is one workload: the engine configuration, the resident
// population, and how transactions use it. README.md says why each
// exists and which layer does most of its work.
type spec struct {
	name string
	// live drives real loopback sockets through server.New; otherwise the
	// driver calls StackSet.Deliver in process.
	live     bool
	disc     string
	chains   int
	shards   int
	resident int
	// lag is how many transactions later a reply's ACK is delivered.
	lag int
	// churn replaces one connection (close, open) before each request.
	churn bool
	// inboundPerTxn is the exact number of inbound frames per transaction.
	inboundPerTxn float64
	// wantExamined, when set, is the PCBs examined per frame the paper
	// predicts; a round more than 1% away fails.
	wantExamined float64
}

var workloads = []spec{
	// demuxd's defaults behind a thousand mostly idle terminals.
	{name: "live-oltp", live: true, disc: "sequent", chains: 512, shards: 4, resident: 1000, inboundPerTxn: 2},
	// The same engine at the repo's canonical n; lag = N*R/think =
	// 6000*0.2/10, the paper's TPC/A model.
	{name: "replay-oltp", disc: "sequent", chains: 512, shards: 4, resident: 6000, lag: 120, inboundPerTxn: 2},
	// The paper's section 3.1 running example: 2000 users on the BSD list.
	{name: "replay-scan", disc: "bsd", chains: 512, shards: 1, resident: 2000, lag: 40, inboundPerTxn: 2, wantExamined: 1001},
	{name: "replay-churn", disc: "sequent", chains: 512, shards: 4, resident: 6000, churn: true, inboundPerTxn: 6},
}

func workloadByName(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

func (sp spec) selection() (discipline.Selection, error) {
	return discipline.Select(sp.disc, "multiplicative", sp.chains)
}

// liveWorkers is the number of client goroutines a live pass runs, each
// with one transaction in flight: half the processors, so that the
// server's goroutines have the other half, and at most four.
func liveWorkers() int {
	return max(1, min(4, runtime.NumCPU()/2))
}
