package engine

import (
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/rng"
	"tcpdemux/internal/wire"
)

// TestDeliverMutatedFramesNeverPanics connects a client, then fires
// thousands of bit-flipped copies of legitimate frames at the server.
// Every delivery must return normally (error or clean drop), the stack
// must stay consistent, and the surviving connection must keep working.
func TestDeliverMutatedFramesNeverPanics(t *testing.T) {
	d := core.NewSequentHash(19, nil)
	server := NewStack(serverAddr, d, 1)
	client := NewStack(clientAddr, core.NewMapDemux(), 2)
	if err := server.Listen(1521, echoUpper); err != nil {
		t.Fatal(err)
	}
	conn, err := client.Connect(serverAddr, 1521, 40000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}

	// Template frames: a data segment and a SYN. The data frame is copied
	// and then actually delivered so the live connection's sequence space
	// stays in sync; mutants are therefore stale duplicates.
	if err := conn.Send([]byte("template")); err != nil {
		t.Fatal(err)
	}
	var templates [][]byte
	for _, f := range client.Drain() {
		templates = append(templates, append([]byte(nil), f...))
		if _, err := server.Deliver(f); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	syn, err := wire.BuildSegment(
		wire.IPv4Header{TTL: 64, Src: clientAddr, Dst: serverAddr},
		wire.TCPHeader{SrcPort: 41000, DstPort: 1521, Seq: 1, Flags: wire.FlagSYN},
		nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	templates = append(templates, syn)

	// Single-bit flips: a lone flip can never cancel in the RFC 1071
	// one's-complement sum, so every mutant must be rejected and the
	// connection must survive. (Multi-bit mutants can reconstruct valid
	// frames — indistinguishable from forgery — and are exercised by
	// TestDeliverRandomGarbage for the no-panic property only.)
	src := rng.New(5)
	for i := 0; i < 20000; i++ {
		tmpl := templates[src.Intn(len(templates))]
		mut := append([]byte(nil), tmpl...)
		mut[src.Intn(len(mut))] ^= byte(1 << src.Intn(8))
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Deliver panicked on mutation %d: %v", i, r)
				}
			}()
			_, _ = server.Deliver(mut)
		}()
		server.Drain() // discard any RSTs
	}

	// The original connection must still work end to end.
	if err := conn.Send([]byte("still alive")); err != nil {
		t.Fatal(err)
	}
	if _, err := Pump(client, server); err != nil {
		t.Fatal(err)
	}
	if got := string(newestRx(conn)); got != "STILL ALIVE" {
		t.Fatalf("connection broken after mutation storm: %q", got)
	}
}

// TestDeliverRandomGarbage fires pure random bytes (valid-looking lengths)
// at the server.
func TestDeliverRandomGarbage(t *testing.T) {
	server := NewStack(serverAddr, core.NewBSDList(), 1)
	if err := server.Listen(80, nil); err != nil {
		t.Fatal(err)
	}
	src := rng.New(7)
	for i := 0; i < 5000; i++ {
		n := src.Intn(120)
		buf := make([]byte, n)
		for j := range buf {
			buf[j] = byte(src.Uint64())
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on garbage %d: %v", i, r)
				}
			}()
			_, _ = server.Deliver(buf)
		}()
	}
	if server.Demuxer().Len() != 1 {
		t.Fatalf("garbage changed the PCB table: %d", server.Demuxer().Len())
	}
}

// TestRSTStorm verifies that unmatched segments draw RSTs and that RSTs
// themselves do not draw counter-RSTs (no packet storms).
func TestRSTStorm(t *testing.T) {
	server := NewStack(serverAddr, core.NewMapDemux(), 1)
	stray, err := wire.BuildSegment(
		wire.IPv4Header{TTL: 64, Src: clientAddr, Dst: serverAddr},
		wire.TCPHeader{SrcPort: 5555, DstPort: 6666, Seq: 9, Flags: wire.FlagACK},
		nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Deliver(stray); err != nil {
		t.Fatal(err)
	}
	replies := server.Drain()
	if len(replies) != 1 {
		t.Fatalf("expected 1 RST, got %d frames", len(replies))
	}
	seg, err := wire.ParseSegment(replies[0])
	if err != nil {
		t.Fatal(err)
	}
	if seg.TCP.Flags&wire.FlagRST == 0 {
		t.Fatalf("reply is not RST: %s", wire.FlagNames(seg.TCP.Flags))
	}
	// Bounce the RST back (as if reflected): must not produce another.
	reflected, err := wire.BuildSegment(
		wire.IPv4Header{TTL: 64, Src: clientAddr, Dst: serverAddr},
		wire.TCPHeader{SrcPort: 5555, DstPort: 6666, Seq: 10, Flags: wire.FlagRST},
		nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Deliver(reflected); err != nil {
		t.Fatal(err)
	}
	if extra := server.Drain(); len(extra) != 0 {
		t.Fatalf("RST drew %d reply frames", len(extra))
	}
}
