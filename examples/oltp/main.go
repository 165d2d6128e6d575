// OLTP: the paper's motivating scenario end to end, with real packets.
//
// A TPC/A-style database server accepts connections from a bank of teller
// terminals, each of which sends small transaction queries and receives
// small responses — heads-down data entry with no packet trains. The
// traffic flows as actual IPv4/TCP frames between two engine stacks, so
// every inbound segment exercises the wire parser and the demultiplexer
// under study.
//
// The example runs the same terminal session over the BSD demultiplexer
// and over the Sequent hashed demultiplexer and reports the PCB
// examinations each one paid, alongside the transaction results.
//
// Run with: go run ./examples/oltp [-terminals 200] [-txns 5]
package main

import (
	"flag"
	"fmt"
	"log"

	"tcpdemux/internal/core"
	"tcpdemux/internal/engine"
	"tcpdemux/internal/rng"
	"tcpdemux/internal/wire"
)

// teller is one terminal's connection plus its account state.
type teller struct {
	conn    *engine.Conn
	account int
}

// The flag defaults, which main_test.go runs the example at.
const (
	defaultTerminals = 200
	defaultTxns      = 5
)

func main() {
	terminals := flag.Int("terminals", defaultTerminals, "number of teller terminals")
	txns := flag.Int("txns", defaultTxns, "transactions per terminal")
	flag.Parse()

	for _, algo := range []string{"bsd", "sequent"} {
		if err := runBank(algo, *terminals, *txns); err != nil {
			log.Fatal(err)
		}
	}
}

// runBank stands up the server with the named demultiplexer and drives the
// terminal load through it.
func runBank(algo string, terminals, txns int) error {
	demux, err := core.New(algo, core.Config{Chains: 19})
	if err != nil {
		return err
	}
	serverAddr := wire.MakeAddr(10, 0, 0, 1)
	clientAddr := wire.MakeAddr(10, 0, 0, 2)
	server := engine.NewStack(serverAddr, demux, 1)
	client := engine.NewStack(clientAddr, core.NewMapDemux(), 2)
	// Every terminal's SYN is in flight at once below, so the listener's
	// half-open backlog has to hold them all; the engine's default of 128
	// would silently drop the rest and leave them in SYN_SENT.
	server.SetBacklog(terminals)

	// The TPC/A transaction: debit/credit an account, return new balance.
	balances := make(map[int]int)
	if err := server.Listen(1521, func(_ *engine.Conn, q []byte) []byte {
		var account, delta int
		if _, err := fmt.Sscanf(string(q), "TXN %d %d", &account, &delta); err != nil {
			return []byte("ERR parse")
		}
		balances[account] += delta
		return []byte(fmt.Sprintf("OK %d", balances[account]))
	}); err != nil {
		return err
	}

	// Every terminal opens its connection (three-way handshake on the wire).
	tellers := make([]*teller, terminals)
	for i := range tellers {
		conn, err := client.Connect(serverAddr, 1521, uint16(30000+i), nil)
		if err != nil {
			return err
		}
		tellers[i] = &teller{conn: conn, account: i}
	}
	if _, err := engine.Pump(client, server); err != nil {
		return err
	}
	for i, tl := range tellers {
		if tl.conn.State() != core.StateEstablished {
			return fmt.Errorf("terminal %d failed to connect: %v", i, tl.conn.State())
		}
	}

	// Steady state begins here: measure only the transaction phase.
	demux.Stats().Reset()

	// Interleave terminals in a memoryless-ish order: each "round" visits
	// the terminals in a seeded shuffle, approximating exponential think
	// times without a clock.
	src := rng.New(99)
	frames := 0
	for round := 0; round < txns; round++ {
		order := src.Perm(terminals)
		for _, ti := range order {
			tl := tellers[ti]
			delta := src.Intn(2000) - 1000
			if err := tl.conn.Send([]byte(fmt.Sprintf("TXN %d %d", tl.account, delta))); err != nil {
				return err
			}
			n, err := engine.Pump(client, server)
			if err != nil {
				return err
			}
			frames += n
			var bal int
			resp := tl.conn.Receive()
			if _, err := fmt.Sscanf(string(resp), "OK %d", &bal); err != nil {
				return fmt.Errorf("terminal %d got %q", ti, resp)
			}
		}
	}

	st := demux.Stats()
	fmt.Printf("%-10s terminals=%d txns=%d frames=%d\n", demux.Name(), terminals, txns, frames)
	fmt.Printf("  server demux: %v\n", st)
	fmt.Printf("  mean PCBs examined per inbound packet: %.1f\n\n", st.MeanExamined())
	return nil
}
