package telemetry

import (
	"bytes"
	"sync"
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/trace"
	"tcpdemux/internal/wire"
)

func tupleN(n uint32) wire.Tuple {
	return wire.Tuple{
		SrcAddr: wire.MakeAddr(10, 0, byte(n>>8), byte(n)), SrcPort: uint16(1024 + n%1000),
		DstAddr: wire.MakeAddr(192, 168, 0, 1), DstPort: 80,
	}
}

// TestRecorderKeepsRecent overflows an N-event recorder from one
// goroutine and from eight, and requires the drain to be exactly the
// last N events recorded, in sequence order.
func TestRecorderKeepsRecent(t *testing.T) {
	const n, total = 16, 16*8 + 64
	for _, writers := range []int{1, 8} {
		fr := NewFlightRecorder(n)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < total; i += writers {
					fr.Record(Event{Time: float64(i), Tuple: tupleN(uint32(i))})
				}
			}(w)
		}
		wg.Wait()
		out := fr.Drain()
		if len(out) != n {
			t.Fatalf("%d writers: drained %d events, want the last %d", writers, len(out), n)
		}
		for i, e := range out {
			if want := uint64(total - n + i); e.Seq != want {
				t.Fatalf("%d writers: event %d has seq %d, want %d", writers, i, e.Seq, want)
			}
		}
		if again := fr.Drain(); len(again) != 0 {
			t.Fatalf("%d writers: second drain returned %d events, want 0", writers, len(again))
		}
	}
}

// TestDrainDeterministic runs the same single-goroutine event stream
// through two recorders and requires byte-identical exported traces —
// the ISSUE's determinism acceptance for the flight recorder.
func TestDrainDeterministic(t *testing.T) {
	record := func() []byte {
		fr := NewFlightRecorder(64)
		for i := 0; i < 500; i++ {
			fr.Record(Event{
				Time:  float64(i) * 0.25,
				Tuple: tupleN(uint32(i % 37)),
				Ack:   i%3 == 0,
			})
		}
		var b bytes.Buffer
		if err := ExportTrace(&b, fr.Drain()); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	if !bytes.Equal(record(), record()) {
		t.Fatalf("two identical runs exported different trace bytes")
	}
}

func TestExportTraceRoundTrips(t *testing.T) {
	fr := NewFlightRecorder(64)
	fr.Record(Event{Time: 1.5, Tuple: tupleN(7), Ack: true})
	fr.Record(Event{Time: 2.5, Tuple: tupleN(9)})
	var b bytes.Buffer
	if err := ExportTrace(&b, fr.Drain()); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var evs []trace.Event
	for {
		ev, err := rd.Next()
		if err != nil {
			break
		}
		evs = append(evs, ev)
	}
	if len(evs) != 2 {
		t.Fatalf("round trip lost events: %d", len(evs))
	}
	if evs[0].Time != 1.5 || !evs[0].Ack || evs[0].Tuple != tupleN(7) {
		t.Fatalf("first event mangled: %+v", evs[0])
	}
	if evs[1].Dir() != core.DirData {
		t.Fatalf("non-ack event read back as ack")
	}
}

// TestRecorderConcurrent exercises Record against Drain under -race and
// verifies sequence numbers stay unique.
func TestRecorderConcurrent(t *testing.T) {
	fr := NewFlightRecorder(256)
	const workers, each = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				fr.Record(Event{Time: float64(i), Tuple: tupleN(uint32(w))})
			}
		}(w)
	}
	stop := make(chan struct{})
	var drains sync.WaitGroup
	drains.Add(1)
	go func() {
		defer drains.Done()
		for {
			select {
			case <-stop:
				return
			default:
				fr.Drain()
			}
		}
	}()
	wg.Wait()
	close(stop)
	drains.Wait()
	out := fr.Drain()
	seen := make(map[uint64]bool, len(out))
	for _, e := range out {
		if seen[e.Seq] {
			t.Fatalf("duplicate sequence number %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

func TestDropReasonStrings(t *testing.T) {
	cases := map[DropReason]string{
		DropNone:        "none",
		DropBadChecksum: "bad-checksum",
		DropBadFrame:    "bad-frame",
		DropNoRoute:     "no-route",
		DropNoListener:  "no-listener",
		DropRST:         "rst",
		DropBacklogFull: "backlog-full",
		DropBadCookie:   "bad-cookie",
		DropReason(200): "unknown",
	}
	for d, want := range cases {
		if d.String() != want {
			t.Fatalf("DropReason(%d).String() = %q, want %q", d, d.String(), want)
		}
	}
}
