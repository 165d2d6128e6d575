// Lossy-link harness: a deterministic, seeded in-memory "wire" between
// two Stacks that drops, duplicates, and jitter-reorders frames, with
// both endpoints driven solely by Stack.Tick. It replaces Pump for
// robustness scenarios: Pump assumes every frame arrives exactly once,
// which makes the engine's retransmission machinery dead code; the Link
// makes that machinery load-bearing, and RunLossyExchange proves an
// application exchange survives it byte for byte.
package engine

import (
	"fmt"
	"sort"

	"tcpdemux/internal/core"
	"tcpdemux/internal/rng"
	"tcpdemux/internal/wire"
)

// LinkConfig parameterizes the lossy wire. Zero values mean a perfect
// link with DefaultLinkLatency delay.
type LinkConfig struct {
	// Seed drives the loss process; the same seed replays the same fate
	// for every frame.
	Seed uint64
	// DropRate is the probability an in-flight frame vanishes.
	DropRate float64
	// DupRate is the probability a surviving frame is delivered twice.
	DupRate float64
	// Latency is the one-way delay in virtual seconds
	// (DefaultLinkLatency if zero).
	Latency float64
	// Jitter adds a uniform [0, Jitter) extra delay per copy, reordering
	// frames that were sent close together.
	Jitter float64
	// PadTo, when positive, pads every delivered frame with trailing
	// zeros to at least PadTo bytes, the way Ethernet pads small frames
	// to its 60-byte minimum. The IP total length bounds parsing, so the
	// padding must be invisible to the receiving stack.
	PadTo int
	// Chaos, when non-nil, is consulted for every launched frame before
	// the probabilistic loss model; it implements scripted scenarios
	// (partitions, stalls, targeted corruption) on top of the background
	// loss process. See the chaos package for a rule-driven implementation.
	Chaos ChaosFunc
}

// ChaosDir identifies a frame's direction across the link.
type ChaosDir int

const (
	// DirAB is a frame traveling from the link's first stack to its
	// second (client → server in RunLossyExchange).
	DirAB ChaosDir = iota
	// DirBA is the reverse direction.
	DirBA
)

// ChaosVerdict is a scenario's ruling on one frame.
type ChaosVerdict struct {
	// Drop discards the frame (counted in Link.Dropped).
	Drop bool
	// Dup delivers an extra copy (counted in Link.Duplicated).
	Dup bool
	// Corrupt flips one byte of the frame before delivery, so the
	// receiver's checksums must catch it.
	Corrupt bool
	// ExtraDelay is added to every surviving copy's delivery time
	// (virtual seconds) — a stall.
	ExtraDelay float64
}

// ChaosFunc judges one frame about to cross the link. It must be
// deterministic in its own state: the Link calls it exactly once per
// launched frame, in launch order.
type ChaosFunc func(frame []byte, dir ChaosDir, now float64) ChaosVerdict

// Endpoint is the frame-moving face of a stack as the Link sees it:
// something that emits queued frames and absorbs delivered ones. A
// single Stack is one; so is the sharded multi-queue engine, which is
// the point of the abstraction — the identical loss process can drive
// either, and the conformance tests compare their application-level
// output byte for byte.
type Endpoint interface {
	Deliver(frame []byte) (core.Result, error)
	Drain() [][]byte
}

// LossyServer is the server end RunLossyExchange drives: an Endpoint
// plus the lifecycle surface the harness needs to configure it, run its
// clock, and report its timer activity. *Stack implements it; the
// sharded engine implements it by fanning each call to its shards.
type LossyServer interface {
	Endpoint
	Listen(port uint16, h Handler) error
	Tick(now float64)
	Addr() wire.Addr
	SetTimers(rto float64, maxRetries int, msl float64)
	SetBacklog(n int)
	LifecycleCounters() (retransmits, aborts, synExpired, timeWaitExpired uint64)
}

// DefaultLinkLatency is the one-way delay when LinkConfig.Latency is
// zero: 10 ms of virtual time.
const DefaultLinkLatency = 0.01

// flight is one frame copy in transit.
type flight struct {
	frame []byte
	to    Endpoint
	at    float64 // delivery time
	seq   uint64  // tie-break: launch order
}

// Link is the lossy wire between two endpoints. Drive it by alternating
// Shuttle (collect + deliver) with advancing virtual time; Idle reports
// when nothing remains in transit.
type Link struct {
	a, b Endpoint
	cfg  LinkConfig
	src  *rng.Source
	// inflight holds undelivered frame copies, unsorted; Shuttle delivers
	// the due ones in (at, seq) order.
	inflight []flight
	seq      uint64

	// Delivered, Dropped, and Duplicated count frame fates, for
	// reporting. Rejected counts delivered frames the receiving stack
	// refused (corrupted copies shed by its checksums).
	Delivered  uint64
	Dropped    uint64
	Duplicated uint64
	Rejected   uint64
}

// NewLink wires two endpoints together through the loss model.
func NewLink(a, b Endpoint, cfg LinkConfig) *Link {
	if cfg.Latency <= 0 {
		cfg.Latency = DefaultLinkLatency
	}
	return &Link{a: a, b: b, cfg: cfg, src: rng.New(cfg.Seed)}
}

// Idle reports whether the wire has no frame copies in transit.
func (l *Link) Idle() bool { return len(l.inflight) == 0 }

// launch decides one drained frame's fate and schedules its copies.
func (l *Link) launch(frame []byte, to Endpoint, now float64) {
	var verdict ChaosVerdict
	if l.cfg.Chaos != nil {
		dir := DirAB
		if to == l.a {
			dir = DirBA
		}
		verdict = l.cfg.Chaos(frame, dir, now)
	}
	if verdict.Drop || l.src.Float64() < l.cfg.DropRate {
		l.Dropped++
		return
	}
	if l.cfg.PadTo > len(frame) {
		padded := make([]byte, l.cfg.PadTo)
		copy(padded, frame)
		frame = padded
	}
	if verdict.Corrupt && len(frame) > 0 {
		// Flip one byte on a copy: the sender's retransmission buffer must
		// keep the pristine frame.
		mangled := make([]byte, len(frame))
		copy(mangled, frame)
		mangled[int(l.src.Uint64()%uint64(len(mangled)))] ^= 0xff
		frame = mangled
	}
	copies := 1
	if verdict.Dup || l.src.Float64() < l.cfg.DupRate {
		l.Duplicated++
		copies = 2
	}
	for c := 0; c < copies; c++ {
		at := now + l.cfg.Latency + verdict.ExtraDelay
		if l.cfg.Jitter > 0 {
			at += l.src.Float64() * l.cfg.Jitter
		}
		l.inflight = append(l.inflight, flight{frame: frame, to: to, at: at, seq: l.seq})
		l.seq++
	}
}

// Inject schedules a raw frame onto the wire as if a third party sent it
// (toB chooses the receiving stack). The frame bypasses the loss model
// and chaos rules: attack traffic is not subject to the defender's luck.
func (l *Link) Inject(frame []byte, toB bool, now float64) {
	to := l.a
	if toB {
		to = l.b
	}
	l.inflight = append(l.inflight, flight{frame: frame, to: to, at: now + l.cfg.Latency, seq: l.seq})
	l.seq++
}

// Shuttle collects both stacks' outboxes through the loss model, then
// delivers every frame copy due by now, in arrival order. Callers
// alternate Shuttle with Stack.Tick on both ends to run the clock.
func (l *Link) Shuttle(now float64) error {
	for _, frame := range l.a.Drain() {
		l.launch(frame, l.b, now)
	}
	for _, frame := range l.b.Drain() {
		l.launch(frame, l.a, now)
	}
	due := l.inflight[:0]
	var deliver []flight
	for _, f := range l.inflight {
		if f.at <= now {
			deliver = append(deliver, f)
		} else {
			due = append(due, f)
		}
	}
	l.inflight = due
	sort.Slice(deliver, func(i, j int) bool {
		if deliver[i].at != deliver[j].at {
			return deliver[i].at < deliver[j].at
		}
		return deliver[i].seq < deliver[j].seq
	})
	for _, f := range deliver {
		if _, err := f.to.Deliver(f.frame); err != nil {
			// Under a chaos scenario, mangled or spoofed frames are the
			// point: the receiver sheds them (its drop counters say why)
			// and the exchange must recover. Without one, every frame on
			// the wire is harness-built and an error is a harness bug.
			if l.cfg.Chaos == nil {
				return fmt.Errorf("lossy deliver: %w", err)
			}
			l.Rejected++
			continue
		}
		l.Delivered++
	}
	return nil
}

// LossyConfig parameterizes RunLossyExchange.
type LossyConfig struct {
	// Clients is the number of concurrent client connections.
	Clients int
	// Txns is the number of request/response transactions per client.
	Txns int
	// Link is the loss model.
	Link LinkConfig
	// Seed feeds the stacks' ISS generators (the Link has its own).
	Seed uint64
	// RTO, MaxRetries, MSL configure both endpoints' lifecycle timers
	// (engine defaults if zero). Lossy runs want a small RTO and a
	// generous retry budget.
	RTO        float64
	MaxRetries int
	MSL        float64
	// Server, when non-nil, is the server endpoint to drive instead of a
	// freshly built single Stack (in which case the Demuxer argument to
	// RunLossyExchange is ignored). The harness configures its backlog
	// and timers and registers the exchange handler itself, so a sharded
	// engine and a single Stack run the exact same application protocol.
	Server LossyServer
	// Step is the virtual-time stride between Shuttle/Tick rounds
	// (defaults to half the link latency).
	Step float64
	// MaxVirtualTime aborts a run that fails to complete (default 1000
	// virtual seconds).
	MaxVirtualTime float64
}

// LossyResult reports one exchange.
type LossyResult struct {
	// Completed is true when every client collected every response and
	// finished its close handshake.
	Completed bool
	// Responses holds each client's concatenated response bytes in
	// application order — the conformance artifact: it must not depend on
	// the loss process.
	Responses [][]byte
	// VirtualTime is when the exchange completed (or gave up).
	VirtualTime float64
	// TxnTimes holds the virtual time at which each transaction's response
	// was collected, in completion order across all clients.
	TxnTimes []float64

	// Wire and lifecycle counters.
	Delivered, Dropped, Duplicated uint64
	Retransmits, Aborts            uint64
	SynExpired, TimeWaitExpired    uint64
}

// lossyPort is the server's listening port for the exchange.
const lossyPort = 1521

// lossyHandler is the server side of the exchange: a deterministic
// response computed from the request alone, so two runs under different
// loss processes must produce identical bytes.
func lossyHandler(_ *Conn, payload []byte) []byte {
	out := make([]byte, 0, len(payload)+4)
	out = append(out, "ok<"...)
	out = append(out, payload...)
	return append(out, '>')
}

// lossyRequest builds client c's transaction t request payload.
func lossyRequest(c, t int) []byte {
	return []byte(fmt.Sprintf("txn c%02d t%03d debit 100", c, t))
}

// RunLossyExchange drives Clients request/response conversations through
// a lossy wire between a client stack and a server stack demultiplexing
// with d, using only Stack.Tick for retransmission and lifecycle — no
// manual Retransmit or ReapTimeWait calls. Each client opens a
// connection, performs Txns stop-and-wait transactions, then closes.
func RunLossyExchange(d core.Demuxer, cfg LossyConfig) (*LossyResult, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.Txns <= 0 {
		cfg.Txns = 1
	}
	if cfg.Step <= 0 {
		lat := cfg.Link.Latency
		if lat <= 0 {
			lat = DefaultLinkLatency
		}
		cfg.Step = lat / 2
	}
	if cfg.MaxVirtualTime <= 0 {
		cfg.MaxVirtualTime = 1000
	}

	var server LossyServer = cfg.Server
	if server == nil {
		server = NewStack(serverAddrLossy, d, cfg.Seed|1)
	}
	client := NewStack(clientAddrLossy, core.NewMapDemux(), cfg.Seed+2)
	// Room for every client to open at once: backlog pressure is its own
	// scenario (see the SYN-flood tests); this exchange studies loss.
	server.SetBacklog(cfg.Clients)
	server.SetTimers(cfg.RTO, cfg.MaxRetries, cfg.MSL)
	client.SetTimers(cfg.RTO, cfg.MaxRetries, cfg.MSL)
	if err := server.Listen(lossyPort, lossyHandler); err != nil {
		return nil, err
	}
	link := NewLink(client, server, cfg.Link)

	// Per-client conversation state, advanced by poll().
	type clientState struct {
		conn    *Conn
		txn     int    // next transaction to send
		sent    bool   // request for txn is outstanding
		got     []byte // concatenated responses
		closing bool   // all transactions collected, Close issued
		done    bool   // close handshake reached TIME_WAIT (or torn down)
	}
	conv := make([]*clientState, cfg.Clients)
	for i := range conv {
		c, err := client.ConnectEphemeral(server.Addr(), lossyPort, nil)
		if err != nil {
			return nil, err
		}
		conv[i] = &clientState{conn: c}
	}

	res := &LossyResult{}
	now := 0.0
	poll := func(cs *clientState) error {
		if cs.done {
			return nil
		}
		switch cs.conn.State() {
		case core.StateClosed:
			// Aborted before finishing, or fully collected after close.
			cs.done = true
			return nil
		case core.StateTimeWait:
			// The peer's FIN arrived: the close handshake completed under
			// loss; only the 2MSL linger remains.
			cs.done = cs.closing
			return nil
		case core.StateEstablished:
		default:
			// Handshake or close still in flight; the timers drive it.
			return nil
		}
		if resp := cs.conn.Receive(); resp != nil {
			cs.got = append(cs.got, resp...)
			cs.sent = false
			cs.txn++
			res.TxnTimes = append(res.TxnTimes, now)
		}
		if cs.sent {
			return nil // stop-and-wait: one outstanding request
		}
		if cs.txn >= cfg.Txns {
			cs.closing = true
			return cs.conn.Close()
		}
		if err := cs.conn.Send(lossyRequest(int(cs.conn.Key().LocalPort), cs.txn)); err != nil {
			return err
		}
		cs.sent = true
		return nil
	}

	for {
		allDone := true
		for _, cs := range conv {
			if err := poll(cs); err != nil {
				return nil, err
			}
			if !cs.done {
				allDone = false
			}
		}
		if allDone && link.Idle() {
			res.Completed = true
			break
		}
		if now >= cfg.MaxVirtualTime {
			break
		}
		now += cfg.Step
		if err := link.Shuttle(now); err != nil {
			return nil, err
		}
		client.Tick(now)
		server.Tick(now)
	}

	res.VirtualTime = now
	for _, cs := range conv {
		res.Responses = append(res.Responses, cs.got)
		if cs.txn < cfg.Txns {
			res.Completed = false
		}
	}
	res.Delivered = link.Delivered
	res.Dropped = link.Dropped
	res.Duplicated = link.Duplicated
	srvRtx, srvAborts, srvSynExp, srvTW := server.LifecycleCounters()
	cliRtx, cliAborts, _, cliTW := client.LifecycleCounters()
	res.Retransmits = cliRtx + srvRtx
	res.Aborts = cliAborts + srvAborts
	res.SynExpired = srvSynExp
	res.TimeWaitExpired = cliTW + srvTW
	return res, nil
}

// Exchange endpoints (distinct names so test files can keep their own).
var (
	serverAddrLossy = wire.MakeAddr(10, 0, 0, 1)
	clientAddrLossy = wire.MakeAddr(10, 0, 0, 2)
)
