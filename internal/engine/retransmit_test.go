package engine

import (
	"bytes"
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/rng"
)

// lossyPump shuttles frames between stacks like Pump, but drops each frame
// with the given probability. It retransmits after every quiescent round
// and gives up after maxRounds.
func lossyPump(t *testing.T, a, b *Stack, dropProb float64, src *rng.Source, maxRounds int) {
	t.Helper()
	for round := 0; round < maxRounds; round++ {
		moved := false
		deliver := func(from, to *Stack) {
			for _, frame := range from.Drain() {
				if src.Float64() < dropProb {
					continue // the wire ate it
				}
				if _, err := to.Deliver(frame); err != nil {
					t.Fatal(err)
				}
				moved = true
			}
		}
		deliver(a, b)
		deliver(b, a)
		if !moved {
			// Quiet: either done or everything in flight was dropped.
			if a.Retransmit()+b.Retransmit() == 0 {
				return
			}
		}
	}
	t.Fatal("lossy pump did not converge")
}

// TestRetransmitRecoversFromLoss runs the handshake and an echo exchange
// over a 25%-loss link; retransmission must carry it through.
func TestRetransmitRecoversFromLoss(t *testing.T) {
	server, client := pair(t, core.NewSequentHash(19, nil))
	if err := server.Listen(80, echoUpper); err != nil {
		t.Fatal(err)
	}
	src := rng.New(1234)
	conn, err := client.Connect(serverAddr, 80, 40000, nil)
	if err != nil {
		t.Fatal(err)
	}
	lossyPump(t, client, server, 0.25, src, 200)
	if conn.State() != core.StateEstablished {
		t.Fatalf("handshake did not survive loss: %v", conn.State())
	}
	if err := conn.Send([]byte("lossy hello")); err != nil {
		t.Fatal(err)
	}
	lossyPump(t, client, server, 0.25, src, 200)
	if got := newestRx(conn); !bytes.Equal(got, []byte("LOSSY HELLO")) {
		t.Fatalf("echo over lossy link = %q", got)
	}
}

// TestRetransmitNoopWhenAcked: after a clean exchange nothing should be
// queued for retransmission.
func TestRetransmitNoopWhenAcked(t *testing.T) {
	server, client := pair(t, core.NewBSDList())
	if err := server.Listen(80, echoUpper); err != nil {
		t.Fatal(err)
	}
	conn, err := client.Connect(serverAddr, 80, 40000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	if n := client.Retransmit() + server.Retransmit(); n != 0 {
		t.Fatalf("retransmit queued %d frames on a lossless link", n)
	}
}

// TestRetransmitDuplicateIsHarmless: retransmitting an already-delivered
// segment must not double-deliver data.
func TestRetransmitDuplicateIsHarmless(t *testing.T) {
	server, client := pair(t, core.NewMapDemux())
	if err := server.Listen(80, nil); err != nil {
		t.Fatal(err)
	}
	var accepted *Conn
	server.OnAccept = func(c *Conn) { accepted = c }
	conn, err := client.Connect(serverAddr, 80, 40000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send([]byte("once")); err != nil {
		t.Fatal(err)
	}
	// Deliver the data frame twice before any ACK reaches the client.
	frames := client.Drain()
	if len(frames) != 1 {
		t.Fatalf("expected 1 data frame, got %d", len(frames))
	}
	for i := 0; i < 2; i++ {
		if _, err := server.Deliver(frames[0]); err != nil {
			t.Fatal(err)
		}
	}
	server.Drain() // discard acks
	if accepted == nil {
		t.Fatal("no accept")
	}
	if n := accepted.Pending(); n != 1 {
		t.Fatalf("duplicate delivered data %d times", n)
	}
}
