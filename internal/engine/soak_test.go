package engine

import (
	"fmt"
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/frag"
	"tcpdemux/internal/rng"
)

// TestSoak is the cross-module endurance run: for thousands of steps it
// randomly opens connections (bound and ephemeral ports), exchanges data
// (sometimes fragmented, sometimes corrupted, sometimes dropped), closes,
// reaps TIME_WAIT, and retransmits — against every demultiplexer — then
// checks the final state is coherent. It exists to catch interactions no
// focused test provokes.
func TestSoak(t *testing.T) {
	for _, algo := range []string{"bsd", "sequent", "auto-sequent", "map"} {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			d, err := core.New(algo, core.Config{Chains: 7})
			if err != nil {
				t.Fatal(err)
			}
			server := NewStack(serverAddr, d, 1)
			client := NewStack(clientAddr, core.NewMapDemux(), 2)
			if err := server.Listen(1521, echoUpper); err != nil {
				t.Fatal(err)
			}
			src := rng.New(0x50ac ^ uint64(len(algo)))

			var open []*Conn
			// alive picks a random established connection without evicting
			// conns that are merely mid-handshake or mid-close.
			alive := func() *Conn {
				if len(open) == 0 {
					return nil
				}
				start := src.Intn(len(open))
				for i := 0; i < len(open); i++ {
					c := open[(start+i)%len(open)]
					if c.State() == core.StateEstablished {
						return c
					}
				}
				return nil
			}

			const steps = 4000
			for step := 0; step < steps; step++ {
				switch src.Intn(10) {
				case 0, 1: // open a connection
					c, err := client.ConnectEphemeral(serverAddr, 1521, nil)
					if err != nil {
						t.Fatal(err)
					}
					open = append(open, c)
				case 2: // close one
					if c := alive(); c != nil {
						if err := c.Close(); err != nil {
							t.Fatal(err)
						}
					}
				case 3: // reap
					client.ReapTimeWait()
					server.ReapTimeWait()
				case 4: // corrupted frame at the server
					junk := make([]byte, 20+src.Intn(60))
					for i := range junk {
						junk[i] = byte(src.Uint64())
					}
					_, _ = server.Deliver(junk)
					server.Drain()
				case 5: // fragmented send
					if c := alive(); c != nil {
						if err := c.Send([]byte(fmt.Sprintf("frag-%04d-%s", step, string(make([]byte, 1200))))); err != nil {
							t.Fatal(err)
						}
						for _, f := range client.Drain() {
							pieces, err := frag.Fragment(f, 576)
							if err != nil {
								t.Fatal(err)
							}
							for _, p := range pieces {
								if src.Intn(10) == 0 {
									continue // drop a fragment sometimes
								}
								if _, err := server.Deliver(p); err != nil {
									t.Fatal(err)
								}
							}
						}
						if _, err := Pump(client, server); err != nil {
							t.Fatal(err)
						}
						// The engine is stop-and-wait: recover any segment
						// whose fragments were dropped before sending more,
						// or the next send overwrites the retransmission
						// buffer and the stream desynchronizes for good.
						if client.Retransmit() > 0 {
							if _, err := Pump(client, server); err != nil {
								t.Fatal(err)
							}
						}
					}
				case 6: // retransmit sweep
					client.Retransmit()
					server.Retransmit()
					if _, err := Pump(client, server); err != nil {
						t.Fatal(err)
					}
				default: // ordinary exchange
					if c := alive(); c != nil {
						msg := fmt.Sprintf("step-%d", step)
						if err := c.Send([]byte(msg)); err != nil {
							t.Fatal(err)
						}
						if _, err := Pump(client, server); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			// Final coherence: one last retransmit round flushes dropped
			// fragments' segments, then every still-open connection echoes.
			client.Retransmit()
			server.Retransmit()
			if _, err := Pump(client, server); err != nil {
				t.Fatal(err)
			}
			checked := 0
			for _, c := range open {
				if c.State() != core.StateEstablished {
					continue
				}
				if err := c.Send([]byte("final check")); err != nil {
					t.Fatal(err)
				}
				if _, err := Pump(client, server); err != nil {
					t.Fatal(err)
				}
				if got := string(newestRx(c)); got != "FINAL CHECK" {
					t.Fatalf("conn %v broken after soak: %q", c.Key(), got)
				}
				checked++
			}
			if checked == 0 {
				t.Fatal("soak ended with no live connections to verify")
			}
			// The server's table must hold exactly: 1 listener + live conns
			// + its own TIME_WAIT residue.
			live := 0
			for _, c := range open {
				if c.State() == core.StateEstablished {
					live++
				}
			}
			want := 1 + live + server.TimeWaitCount()
			if got := server.Demuxer().Len(); got != want {
				tally := map[string]int{}
				for _, row := range server.PCBs() {
					tally[row.State.String()]++
				}
				t.Fatalf("server table %d PCBs, want %d (1 listener + %d live + %d time-wait); states: %v",
					got, want, live, server.TimeWaitCount(), tally)
			}
			t.Logf("%s: %d steps, %d live at end, server stats: %v",
				algo, steps, live, server.Demuxer().Stats())
		})
	}
}
