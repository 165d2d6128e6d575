package telemetry

import (
	"io"
	"sync"

	"tcpdemux/internal/trace"
	"tcpdemux/internal/wire"
)

// DropReason classifies why a delivered frame produced no connection
// progress — the engine's per-reason drop taxonomy, carried on flight
// events so a drop's tuple and timing survive next to its counter.
type DropReason uint8

// Drop reasons, mirroring engine.StackStats.
const (
	DropNone DropReason = iota
	DropBadChecksum
	DropBadFrame
	DropNoRoute
	DropNoListener
	DropRST
	DropBacklogFull
	DropBadCookie
)

// String names the reason.
func (d DropReason) String() string {
	switch d {
	case DropNone:
		return "none"
	case DropBadChecksum:
		return "bad-checksum"
	case DropBadFrame:
		return "bad-frame"
	case DropNoRoute:
		return "no-route"
	case DropNoListener:
		return "no-listener"
	case DropRST:
		return "rst"
	case DropBacklogFull:
		return "backlog-full"
	case DropBadCookie:
		return "bad-cookie"
	}
	return "unknown"
}

// Event is one demultiplexing event in the flight recorder: what a
// kernel's packet-trace ring would capture about the lookup step.
type Event struct {
	// Time is the event's virtual timestamp; Seq is the recorder-assigned
	// sequence number, the order a drain returns events in.
	Time float64
	Seq  uint64
	// Tuple identifies the packet's connection (inbound orientation).
	Tuple wire.Tuple
	// Discipline names the demuxer that served the lookup.
	Discipline string
	// Chain is the hash chain probed, or -1 when the structure has no
	// chain notion (or the recording caller does not name it).
	Chain int32
	// Examined is the PCBs-touched count for the lookup.
	Examined int32
	// Hit marks a one-entry-cache hit; Wildcard a listener match; Miss a
	// lookup that found no PCB; Ack a pure-acknowledgement lookup.
	Hit      bool
	Wildcard bool
	Miss     bool
	Ack      bool
	// Drop is the disposition of the packet after the lookup (DropNone
	// when it progressed a connection).
	Drop DropReason
}

// FlightRecorder keeps the most recent demux events in one
// fixed-capacity ring under one mutex. Record is zero-alloc (the ring is
// pre-allocated); Drain returns the retained events in sequence order
// and resets the ring.
type FlightRecorder struct {
	mu   sync.Mutex
	buf  []Event
	next int    // ring index the next event is written to
	full bool   // the ring has wrapped since the last drain
	seq  uint64 // sequence number of the next event
}

// NewFlightRecorder builds a recorder that keeps the last n events (n
// below 1 is raised to 1).
func NewFlightRecorder(n int) *FlightRecorder {
	return &FlightRecorder{buf: make([]Event, max(n, 1))}
}

// Record appends one event, assigning its sequence number. When the ring
// is full the oldest event is overwritten — flight-recorder semantics:
// the recent past is what matters.
//
//demux:hotpath
func (fr *FlightRecorder) Record(e Event) {
	fr.mu.Lock()
	e.Seq = fr.seq
	fr.seq++
	fr.buf[fr.next] = e
	fr.next++
	if fr.next == len(fr.buf) {
		fr.next = 0
		fr.full = true
	}
	fr.mu.Unlock()
}

// Drain returns the retained events, oldest first — exactly the last
// len(ring) events recorded since the previous drain, or all of them if
// fewer — and resets the ring.
func (fr *FlightRecorder) Drain() []Event {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	var out []Event
	if fr.full {
		out = append(out, fr.buf[fr.next:]...)
	}
	out = append(out, fr.buf[:fr.next]...)
	fr.next, fr.full = 0, false
	return out
}

// ExportTrace writes drained events in the internal/trace binary format,
// so a flight-recorder capture replays through trace.Replay exactly like
// a recorded workload stream. Only the fields the trace format carries
// (time, tuple, ack) survive the export.
func ExportTrace(w io.Writer, events []Event) error {
	tw, err := trace.NewWriter(w)
	if err != nil {
		return err
	}
	for _, e := range events {
		if err := tw.Write(trace.Event{Time: e.Time, Tuple: e.Tuple, Ack: e.Ack}); err != nil {
			return err
		}
	}
	return tw.Flush()
}
