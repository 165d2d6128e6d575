// Package engine glues the substrates into a runnable endpoint: raw
// IPv4/TCP frames go in, PCB demultiplexing locates the connection, a
// minimal TCP state machine advances it, and reply frames come out. The
// examples use two linked Stacks to run realistic client/server traffic
// through whichever demultiplexer is under study.
//
// The TCP machinery is deliberately small — enough for passive/active
// open, in-order data exchange with acknowledgements, reset generation,
// and close — because the paper's subject is the lookup step, not
// congestion control or retransmission.
package engine

import (
	"errors"
	"fmt"
	"sort"

	"tcpdemux/internal/core"
	"tcpdemux/internal/frag"
	"tcpdemux/internal/hashfn"
	"tcpdemux/internal/rng"
	"tcpdemux/internal/telemetry"
	"tcpdemux/internal/timer"
	"tcpdemux/internal/wire"
)

// Errors reported by the engine.
var (
	ErrPortInUse = errors.New("engine: port already has a listener")
	ErrClosed    = errors.New("engine: connection is closed")
	ErrNoRoute   = errors.New("engine: frame is not addressed to this stack")
)

// Handler consumes application data arriving on an accepted connection and
// optionally returns a response payload to transmit on the same
// connection.
type Handler func(c *Conn, payload []byte) (response []byte)

// DefaultBacklog bounds half-open (SYN_RCVD) connections per listener.
// Without it a SYN flood manufactures PCBs without limit, bloating exactly
// the lookup structures this repo measures.
const DefaultBacklog = 128

// Conn is one connection: the PCB the demultiplexer holds, the owning
// Stack and the engine's state for it, in one 64-byte allocation.
// PCB.UserData points back at the Conn, as so_pcb links the socket in BSD.
type Conn struct {
	// pcb is first, so the demultiplexer's pointer is the Conn's address
	// and a lookup touches the head of the object the frame then works on.
	pcb   core.PCB
	stack *Stack
	// rx is the listener's shared recv holding the handler, or the
	// connection's own queue, made on its first payload.
	rx *recv
	// tx holds the retransmission and lifecycle state while anything is
	// outstanding, and is nil while the connection is idle; see txState.
	tx *txState
}

// txState is the part of a connection that matters only while something
// is outstanding: a sequence-consuming segment not yet acknowledged, or a
// lifecycle timer armed (SYN_RCVD, TIME_WAIT). An idle connection holds
// none; records recycle through the Stack's free list (txOf, txIdle), so
// a transaction allocates nothing new.
type txState struct {
	// unacked retains the frame of the most recent sequence-consuming
	// segment until the peer acknowledges it, for the retransmission
	// timer and Stack.Retransmit. The engine is stop-and-wait per
	// connection: a second send before the first is acknowledged replaces
	// the retransmission buffer.
	unacked    []byte
	unackedEnd uint32
	// retries counts consecutive timer-driven retransmissions of the same
	// segment (reset on acknowledgement) and drives exponential backoff
	// and the max-retry abort; rtx is the pending retransmission timer.
	retries int32
	rtx     timer.Timer
	// life is the connection-lifecycle timer: SYN_RCVD give-up while half
	// open, the 2MSL clock once in TIME_WAIT.
	life timer.Timer
}

// txOf returns c's record, taking one from the free list (or allocating,
// when it is empty) if c holds none.
func (s *Stack) txOf(c *Conn) *txState {
	if c.tx == nil {
		if last := len(s.txFree) - 1; last >= 0 {
			c.tx, s.txFree = s.txFree[last], s.txFree[:last]
		} else {
			c.tx = new(txState)
		}
	}
	return c.tx
}

// txIdle gives c's record back to the free list once nothing on it is
// outstanding: no segment awaits acknowledgement and no lifecycle timer
// is pending. The retransmission timer is stopped wherever unacked is
// released, so it never outlives the segment.
func (s *Stack) txIdle(c *Conn) {
	if t := c.tx; t.unacked == nil && !t.life.Pending() {
		s.txPut(c)
	}
}

// txPut returns c's record to the free list, cleared. Its timers must
// already be stopped.
func (s *Stack) txPut(c *Conn) {
	*c.tx = txState{}
	s.txFree = append(s.txFree, c.tx)
	c.tx = nil
}

// recv is where a connection's payloads go: to the handler h, or without
// one onto q for Receive, bounded to rxQueueMax by dropping the oldest (an
// unread queue means the application abandoned the data). Listen makes one
// recv{h} per port that every connection it accepts shares.
type recv struct {
	h Handler
	q [][]byte
}

// newConn makes the connection for key in the given state, its PCB not
// yet inserted.
func (s *Stack) newConn(k core.Key, state core.State, rx *recv) *Conn {
	c := &Conn{pcb: core.PCB{Key: k, State: state}, stack: s, rx: rx}
	c.pcb.UserData = c
	return c
}

// Key returns the connection's demultiplexing key.
func (c *Conn) Key() core.Key { return c.pcb.Key }

// State returns the connection's TCP state.
func (c *Conn) State() core.State { return c.pcb.State }

// Send transmits payload on the connection.
func (c *Conn) Send(payload []byte) error {
	return c.stack.send(c, payload, wire.FlagACK|wire.FlagPSH)
}

// Close starts the active close: FIN is sent and the connection walks
// FIN_WAIT_1 → FIN_WAIT_2 → TIME_WAIT as the peer responds. The PCB stays
// in the demultiplexer through TIME_WAIT (lengthening lookup chains, as on
// a real server) until the 2MSL timer fires under Stack.Tick or
// Stack.ReapTimeWait collects it.
//
// Closing a connection that has not completed its handshake tears it down
// directly: there is no established peer state to dissolve, so no FIN is
// sent (and a SYN_RCVD close releases its listener backlog slot).
func (c *Conn) Close() error {
	switch c.pcb.State {
	case core.StateClosed, core.StateTimeWait, core.StateFinWait1,
		core.StateFinWait2, core.StateClosing, core.StateLastAck:
		return ErrClosed
	case core.StateSynSent, core.StateSynRcvd:
		c.stack.teardown(c)
		return nil
	case core.StateCloseWait:
		// Passive close: our FIN answers the peer's.
		if err := c.stack.send(c, nil, wire.FlagFIN|wire.FlagACK); err != nil {
			return err
		}
		c.pcb.State = core.StateLastAck
		return nil
	}
	if err := c.stack.send(c, nil, wire.FlagFIN|wire.FlagACK); err != nil {
		return err
	}
	c.pcb.State = core.StateFinWait1
	return nil
}

// rxQueueMax bounds the per-connection receive queue.
const rxQueueMax = 1024

// Stack is one host endpoint. It has a single owner: one goroutine drives
// Deliver, Tick and every other method of the Stack and of its Conns, and
// handlers, timer callbacks, OnAccept and the egress tap all run on that
// goroutine, inside the call that triggered them. Nothing in it is locked.
// A caller that reaches one Stack from two goroutines serializes the calls
// itself (examples/netpipe); shard.StackSet gives each shard's Stack to the
// one goroutine that drives the set.
type Stack struct {
	addr     wire.Addr
	demux    core.Demuxer
	src      *rng.Source
	outbox   [][]byte
	handlers map[uint16]*recv // per listening port; nil without a handler
	// timeWaits counts the PCBs lingering in TIME_WAIT.
	timeWaits int
	// halfOpen counts SYN_RCVD PCBs per listening port, against backlog
	// (DefaultBacklog until SetBacklog).
	halfOpen map[uint16]int
	backlog  int
	// SynCookies enables stateless SYN|ACKs once the backlog fills, so
	// legitimate clients can complete handshakes during a flood; see
	// cookies.go.
	SynCookies bool
	// seed is retained for deriving independent secrets (the cookie key)
	// without disturbing src's deterministic draw sequence.
	seed uint64
	// cookie is the lazily derived SYN-cookie secret.
	cookie     hashfn.Keyed
	cookieInit bool
	// tel holds the per-reason drop, cookie, and lifecycle counters on a
	// telemetry registry (a private one until SetTelemetry re-homes them);
	// Stats() renders them as a StackStats view.
	tel    *telemetry.StackMetrics
	reasm  *frag.Reassembler
	frames uint64 // delivered-frame counter, the reassembly clock
	// usedPorts tracks ephemeral allocations (see ports.go).
	usedPorts map[uint16]bool
	// OnAccept, if set, is invoked from inside Deliver when a passive open
	// completes.
	OnAccept func(*Conn)
	// egress, when set via SetEgressTap, receives every outbound frame
	// the instant it is queued, instead of the frame landing on the
	// outbox for Drain. Invoked from inside Deliver and Tick; see
	// SetEgressTap.
	egress func(frame []byte)

	// wheel and now are the stack's virtual-time lifecycle clock; see
	// timers.go. Tick(now) advances them.
	wheel *timer.Wheel
	now   float64
	// The lifecycle timer settings, holding the Default* values until
	// SetTimers; see timers.go.
	rto        float64
	maxRetries int
	msl        float64
	// txFree holds the txState records no connection is using.
	txFree []*txState
}

// NewStack builds a host endpoint at addr that demultiplexes with d.
func NewStack(addr wire.Addr, d core.Demuxer, seed uint64) *Stack {
	return &Stack{
		addr:       addr,
		demux:      d,
		src:        rng.New(seed),
		seed:       seed,
		handlers:   make(map[uint16]*recv),
		halfOpen:   make(map[uint16]int),
		backlog:    DefaultBacklog,
		reasm:      frag.New(64),
		wheel:      timer.New(timerTick),
		tel:        telemetry.NewStackMetrics(telemetry.NewRegistry()),
		rto:        DefaultRTO,
		maxRetries: DefaultMaxRetries,
		msl:        DefaultMSL,
	}
}

// SetTelemetry re-homes the stack's counters on reg, so its drops,
// cookies, and timer fires appear in the same snapshot as the demux and
// rekey metrics. Call it before delivering traffic: counts already
// accumulated on the previous registry are not carried over. Stacks homed
// on one registry (a StackSet's shards) share its counters, so each one's
// Stats and LifecycleCounters then report the registry-wide totals.
func (s *Stack) SetTelemetry(reg *telemetry.Registry) {
	s.tel = telemetry.NewStackMetrics(reg)
}

// Telemetry returns the stack's counter bundle (for tests and direct
// snapshot access).
func (s *Stack) Telemetry() *telemetry.StackMetrics {
	return s.tel
}

// Addr returns the stack's address.
func (s *Stack) Addr() wire.Addr { return s.addr }

// Demuxer exposes the underlying demultiplexer (for stats inspection).
func (s *Stack) Demuxer() core.Demuxer { return s.demux }

// Listen registers a handler for a local port and inserts the listening
// PCB.
func (s *Stack) Listen(port uint16, h Handler) error {
	if _, dup := s.handlers[port]; dup {
		return ErrPortInUse
	}
	pcb := core.NewListenPCB(core.ListenKey(s.addr, port))
	if err := s.demux.Insert(pcb); err != nil {
		return err
	}
	var rx *recv
	if h != nil {
		rx = &recv{h: h}
	}
	s.handlers[port] = rx
	return nil
}

// Connect begins an active open to remote:port from the given local port,
// queueing the SYN. The returned Conn becomes Established once the peer's
// SYN|ACK is delivered.
func (s *Stack) Connect(remote wire.Addr, remotePort, localPort uint16, h Handler) (*Conn, error) {
	k := core.Key{
		LocalAddr: s.addr, LocalPort: localPort,
		RemoteAddr: remote, RemotePort: remotePort,
	}
	c := s.newConn(k, core.StateSynSent, nil)
	if h != nil {
		c.rx = &recv{h: h}
	}
	c.pcb.SndNxt = uint32(s.src.Uint64()) // ISS
	if err := s.demux.Insert(&c.pcb); err != nil {
		return nil, err
	}
	if err := s.send(c, nil, wire.FlagSYN); err != nil {
		s.demux.Remove(k)
		return nil, err
	}
	return c, nil
}

// Drain returns the queued outbound frames and clears the outbox.
func (s *Stack) Drain() [][]byte {
	out := s.outbox
	s.outbox = nil
	return out
}

// SetEgressTap routes outbound frames to fn as they are produced instead
// of queuing them on the outbox — the serving frontend's path, where a
// frame's destination socket is known the moment the frame exists and a
// Drain poll per delivery would rescan every shard. fn runs inside Deliver
// and Tick, part-way through a frame or a timer, so it must not call back
// into this Stack; append to a caller-owned queue and process after
// Deliver/Tick returns. Passing nil restores outbox queuing.
func (s *Stack) SetEgressTap(fn func(frame []byte)) {
	s.egress = fn
}

// emit hands one outbound frame to the egress tap, or queues it on the
// outbox when no tap is installed.
func (s *Stack) emit(frame []byte) {
	if s.egress != nil {
		s.egress(frame)
		return
	}
	s.outbox = append(s.outbox, frame)
}

// send builds and queues one segment on c. SYN and FIN consume one
// sequence number; data consumes its length.
func (s *Stack) send(c *Conn, payload []byte, flags uint8) error {
	pcb := &c.pcb
	if pcb.State == core.StateClosed {
		return ErrClosed
	}
	ip := wire.IPv4Header{
		TTL: 64,
		Src: pcb.Key.LocalAddr, Dst: pcb.Key.RemoteAddr,
	}
	tcp := wire.TCPHeader{
		SrcPort: pcb.Key.LocalPort, DstPort: pcb.Key.RemotePort,
		Seq: pcb.SndNxt, Ack: pcb.RcvNxt,
		Flags: flags, Window: 65535,
	}
	if flags&wire.FlagACK == 0 && flags&wire.FlagSYN == 0 && flags&wire.FlagRST == 0 {
		tcp.Flags |= wire.FlagACK
	}
	frame, err := wire.BuildSegment(ip, tcp, payload)
	if err != nil {
		return err
	}
	pcb.SndNxt += uint32(len(payload))
	if flags&(wire.FlagSYN|wire.FlagFIN) != 0 {
		pcb.SndNxt++
	}
	if len(payload) > 0 || flags&(wire.FlagSYN|wire.FlagFIN) != 0 {
		t := s.txOf(c)
		t.unacked = frame
		t.unackedEnd = pcb.SndNxt
		t.retries = 0
		s.armRetransmit(c)
	}
	s.demux.NotifySend(pcb)
	s.emit(frame)
	return nil
}

// sendRST queues a reset for an unmatched segment, following RFC 793's
// reset-generation rules: if the offending segment carries an ACK, the
// reset takes its sequence number from that ACK field; otherwise the
// reset has sequence number zero and acknowledges the segment's SEG.LEN
// (payload length plus one for each of SYN and FIN) so the sender can
// match it.
func (s *Stack) sendRST(seg *wire.Segment) {
	ip := wire.IPv4Header{TTL: 64, Src: seg.IP.Dst, Dst: seg.IP.Src}
	tcp := wire.TCPHeader{
		SrcPort: seg.TCP.DstPort, DstPort: seg.TCP.SrcPort,
		Flags: wire.FlagRST, Window: 0,
	}
	if seg.TCP.Flags&wire.FlagACK != 0 {
		tcp.Seq = seg.TCP.Ack
	} else {
		segLen := uint32(len(seg.Payload))
		if seg.TCP.Flags&wire.FlagSYN != 0 {
			segLen++
		}
		if seg.TCP.Flags&wire.FlagFIN != 0 {
			segLen++
		}
		tcp.Seq = 0
		tcp.Ack = seg.TCP.Seq + segLen
		tcp.Flags |= wire.FlagACK
	}
	if frame, err := wire.BuildSegment(ip, tcp, nil); err == nil {
		s.emit(frame)
	}
}

// teardown removes the connection from the demultiplexer and marks it
// closed, unwinding it (see unwind), giving back its txState and releasing
// its ephemeral port if it had one.
func (s *Stack) teardown(c *Conn) {
	s.unwind(c)
	if c.tx != nil {
		s.txPut(c)
	}
	s.demux.Remove(c.pcb.Key)
	c.pcb.State = core.StateClosed
	s.releasePort(c.pcb.Key.LocalPort)
}

// unwind cancels the connection's lifecycle timers and takes it off the
// stack's counts: a SYN_RCVD connection gives back its listener backlog
// slot, a TIME_WAIT one leaves the TIME_WAIT count. Teardown and Extract
// both do this as the connection leaves the table.
func (s *Stack) unwind(c *Conn) {
	if t := c.tx; t != nil {
		stopTimer(&t.rtx)
		stopTimer(&t.life)
	}
	switch c.pcb.State {
	case core.StateSynRcvd:
		s.releaseHalfOpen(c)
	case core.StateTimeWait:
		s.timeWaits--
	}
}

// classify picks the lookup direction for an inbound segment: pure
// acknowledgements probe send-side caches first (paper footnote 5).
func classify(seg *wire.Segment) core.Direction {
	if len(seg.Payload) == 0 && seg.TCP.Flags&(wire.FlagSYN|wire.FlagFIN|wire.FlagRST) == 0 {
		return core.DirAck
	}
	return core.DirData
}

// Deliver processes one inbound frame: parse, demultiplex, advance the
// state machine, queue any replies. It returns the lookup result so
// callers can account examination costs. The frame is decoded once, into a
// Segment that lives on this call's stack.
//
//demux:hotpath
func (s *Stack) Deliver(frame []byte) (core.Result, error) {
	s.frames++
	if frag.ExpiryDue(s.frames) {
		s.reasm.Reap(float64(s.frames), frag.ExpiryTTL)
	}
	var segment wire.Segment
	seg := &segment
	err := seg.Decode(frame)
	if err != nil && errors.Is(err, wire.ErrFragmented) {
		// Absorb the fragment; if it completes a datagram, process the
		// rebuilt frame, otherwise we are done for now.
		whole, ferr := s.reasm.Add(frame, float64(s.frames))
		if ferr != nil {
			return core.Result{}, ferr
		}
		if whole == nil {
			return core.Result{}, nil
		}
		err = seg.Decode(whole)
	}
	if err != nil {
		if errors.Is(err, wire.ErrTCPBadChecksum) || errors.Is(err, wire.ErrIPv4BadChecksum) {
			s.tel.DroppedBadChecksum.Inc()
		} else {
			s.tel.DroppedBadFrame.Inc()
		}
		return core.Result{}, err
	}
	if seg.IP.Dst != s.addr {
		s.tel.DroppedNoRoute.Inc()
		return core.Result{}, ErrNoRoute
	}
	key := core.KeyFromTuple(seg.Tuple())
	res := s.demux.Lookup(key, classify(seg))
	pcb := res.PCB
	if pcb == nil {
		if seg.TCP.Flags&wire.FlagRST == 0 {
			s.tel.DroppedNoListener.Inc()
			s.sendRST(seg)
		} else {
			// RFC 793: never reset a reset.
			s.tel.DroppedRST.Inc()
		}
		return res, nil
	}
	if pcb.State == core.StateListen {
		s.handleListen(seg, key)
		return res, nil
	}
	// Every PCB but a listener is a Conn's.
	c := pcb.UserData.(*Conn)
	// Any acknowledgement covering the retransmission buffer releases it,
	// quenches the retransmission timer and, unless a lifecycle timer is
	// pending, gives the connection's txState back.
	if t := c.tx; t != nil && seg.TCP.Flags&wire.FlagACK != 0 && t.unacked != nil && seg.TCP.Ack == t.unackedEnd {
		t.unacked = nil
		t.retries = 0
		stopTimer(&t.rtx)
		s.txIdle(c)
	}

	switch pcb.State {
	case core.StateSynSent:
		s.handleSynSent(c, seg)
	case core.StateSynRcvd:
		s.handleSynRcvd(c, seg)
	case core.StateEstablished:
		s.handleEstablished(c, seg)
	case core.StateCloseWait, core.StateLastAck:
		// The final ACK closes, and so does an RST at the next expected
		// sequence number: a peer that has left TIME_WAIT answers a
		// retransmitted FIN with one.
		f := seg.TCP.Flags
		if f&wire.FlagACK != 0 && seg.TCP.Ack == pcb.SndNxt || f&wire.FlagRST != 0 && seg.TCP.Seq == pcb.RcvNxt {
			s.teardown(c)
		}
	case core.StateFinWait1, core.StateFinWait2, core.StateClosing, core.StateTimeWait:
		s.handleClosing(c, seg)
	default:
		// Closed, or states the engine does not model further.
	}
	return res, nil
}

// handleClosing advances the active-close states.
func (s *Stack) handleClosing(c *Conn, seg *wire.Segment) {
	pcb := &c.pcb
	f := seg.TCP.Flags
	if f&wire.FlagRST != 0 {
		if seg.TCP.Seq == pcb.RcvNxt {
			s.teardown(c)
		}
		return
	}
	finAcked := f&wire.FlagACK != 0 && seg.TCP.Ack == pcb.SndNxt
	finHere := f&wire.FlagFIN != 0 && seg.TCP.Seq+uint32(len(seg.Payload)) == pcb.RcvNxt
	// A data segment below the window is a retransmission whose original
	// acknowledgement was lost; re-acknowledge so the peer can release its
	// buffer instead of backing off to an abort.
	staleData := len(seg.Payload) > 0 && seg.TCP.Seq+uint32(len(seg.Payload)) == pcb.RcvNxt

	switch pcb.State {
	case core.StateFinWait1:
		switch {
		case finHere && finAcked:
			pcb.RcvNxt++
			s.enterTimeWait(c)
			_ = s.send(c, nil, wire.FlagACK)
		case finHere:
			// Simultaneous close.
			pcb.RcvNxt++
			pcb.State = core.StateClosing
			_ = s.send(c, nil, wire.FlagACK)
		case finAcked:
			pcb.State = core.StateFinWait2
			if staleData {
				_ = s.send(c, nil, wire.FlagACK)
			}
		case staleData:
			_ = s.send(c, nil, wire.FlagACK)
		}
	case core.StateFinWait2:
		if finHere {
			pcb.RcvNxt++
			s.enterTimeWait(c)
			_ = s.send(c, nil, wire.FlagACK)
		} else if staleData {
			_ = s.send(c, nil, wire.FlagACK)
		}
	case core.StateClosing:
		if finAcked {
			s.enterTimeWait(c)
		}
	case core.StateTimeWait:
		// A retransmitted FIN sits one octet below RcvNxt — we already
		// consumed it once; the peer evidently lost our final ACK. Re-ack
		// and restart the 2MSL clock, as RFC 793 prescribes.
		if f&wire.FlagFIN != 0 && seg.TCP.Seq+uint32(len(seg.Payload)) == pcb.RcvNxt-1 {
			_ = s.send(c, nil, wire.FlagACK)
			s.armTimeWait(c)
		}
	}
}

// enterTimeWait parks the connection in TIME_WAIT. It remains in the
// demultiplexer — and therefore keeps lengthening its chain — until the
// 2MSL timer fires under Stack.Tick (or ReapTimeWait forces the issue),
// modeling the 2MSL linger of a real stack.
func (s *Stack) enterTimeWait(c *Conn) {
	c.pcb.State = core.StateTimeWait
	s.timeWaits++
	s.armTimeWait(c)
}

// TimeWaitCount returns the number of PCBs lingering in TIME_WAIT.
func (s *Stack) TimeWaitCount() int {
	return s.timeWaits
}

// ReapTimeWait removes every TIME_WAIT PCB from the demultiplexer
// immediately — forcing every 2MSL timer, wherever it stands — and
// returns how many were collected. Under Stack.Tick the same collection
// happens automatically as each PCB's own 2MSL deadline passes; this
// manual sweep remains for tests and clock-less callers.
func (s *Stack) ReapTimeWait() int {
	var reap []*Conn
	s.demux.Walk(func(p *core.PCB) bool {
		if p.State == core.StateTimeWait {
			reap = append(reap, p.UserData.(*Conn))
		}
		return true
	})
	for _, c := range reap {
		s.teardown(c)
	}
	return len(reap)
}

// handleListen performs the passive open: a SYN to a listener spawns a
// connection PCB in SYN_RCVD and answers SYN|ACK.
func (s *Stack) handleListen(seg *wire.Segment, key core.Key) {
	f := seg.TCP.Flags
	if f&wire.FlagSYN == 0 || f&wire.FlagACK != 0 {
		// Not an initial SYN. With cookies enabled, a pure ACK may be the
		// third step of a stateless handshake — validate it against the
		// cookie it must echo.
		if s.SynCookies && f&wire.FlagACK != 0 && f&(wire.FlagSYN|wire.FlagRST|wire.FlagFIN) == 0 {
			s.acceptCookieACK(seg, key)
			return
		}
		if f&wire.FlagRST == 0 {
			s.sendRST(seg)
		}
		return
	}
	if s.halfOpen[key.LocalPort] >= s.backlog {
		s.tel.SynDrops.Inc()
		if s.SynCookies {
			// Backlog full: answer statelessly instead of shedding the
			// SYN, so a legitimate client can still complete — the whole
			// point of cookies.
			s.sendCookieSynAck(seg)
			return
		}
		// Backlog full: drop the SYN silently, as listen(2) queues do —
		// the client's retransmission will retry after the flood ebbs.
		s.tel.DroppedBacklogFull.Inc()
		return
	}
	c := s.newConn(key, core.StateSynRcvd, s.handlers[key.LocalPort])
	c.pcb.RcvNxt = seg.TCP.Seq + 1
	c.pcb.SndNxt = uint32(s.src.Uint64()) // ISS
	if err := s.demux.Insert(&c.pcb); err != nil {
		// Simultaneous duplicate SYN; drop.
		return
	}
	s.halfOpen[key.LocalPort]++
	if err := s.send(c, nil, wire.FlagSYN|wire.FlagACK); err != nil {
		// Teardown releases the backlog slot we just took, or a transient
		// send failure would permanently shrink the listener's accept
		// capacity.
		s.teardown(c)
		return
	}
	s.armSynRcvdExpiry(c)
}

// releaseHalfOpen decrements the listener's half-open count when a
// SYN_RCVD connection either completes or dies.
func (s *Stack) releaseHalfOpen(c *Conn) {
	port := c.pcb.Key.LocalPort
	if n := s.halfOpen[port]; n > 0 {
		s.halfOpen[port] = n - 1
	}
}

// handleSynSent completes the active open on SYN|ACK. Both it and an RST
// count only if they acknowledge the SYN (RFC 793), so a reset left over
// from the 4-tuple's previous connection cannot reset a fresh connect.
func (s *Stack) handleSynSent(c *Conn, seg *wire.Segment) {
	pcb := &c.pcb
	f := seg.TCP.Flags
	if f&wire.FlagACK == 0 || seg.TCP.Ack != pcb.SndNxt {
		return
	}
	if f&wire.FlagRST != 0 {
		s.teardown(c)
		return
	}
	if f&wire.FlagSYN == 0 {
		return
	}
	pcb.RcvNxt = seg.TCP.Seq + 1
	pcb.State = core.StateEstablished
	if err := s.send(c, nil, wire.FlagACK); err != nil {
		s.teardown(c)
	}
}

// handleSynRcvd completes the passive open on the third-step ACK. An RST
// counts only at exactly the next expected sequence number, as in
// handleEstablished, so a reset left over from the 4-tuple's previous
// connection cannot kill a fresh passive open; teardown gives back the
// backlog slot.
func (s *Stack) handleSynRcvd(c *Conn, seg *wire.Segment) {
	f := seg.TCP.Flags
	if f&wire.FlagRST != 0 {
		if seg.TCP.Seq == c.pcb.RcvNxt {
			s.teardown(c)
		}
		return
	}
	if f&wire.FlagACK == 0 || seg.TCP.Ack != c.pcb.SndNxt {
		return
	}
	s.releaseHalfOpen(c)
	c.pcb.State = core.StateEstablished
	// Handshake complete: the SYN_RCVD give-up timer no longer applies,
	// and with it stopped the connection's txState goes back.
	stopTimer(&c.tx.life)
	s.txIdle(c)
	if s.OnAccept != nil {
		s.OnAccept(c)
	}
	// The handshake ACK may already carry data.
	if len(seg.Payload) > 0 {
		s.handleEstablished(c, seg)
	}
}

// handleEstablished consumes data and FIN on an open connection.
func (s *Stack) handleEstablished(c *Conn, seg *wire.Segment) {
	pcb := &c.pcb
	if seg.TCP.Flags&wire.FlagRST != 0 {
		// RFC 5961-style strictness: a reset is honoured only at exactly
		// the next expected sequence number, so stale or forged resets
		// cannot tear the connection down.
		if seg.TCP.Seq == pcb.RcvNxt {
			s.teardown(c)
		}
		return
	}
	// A duplicate handshake segment (retransmitted SYN|ACK whose ACK we
	// lost) or out-of-order data gets a pure ACK so the peer can release
	// its retransmission buffer — RFC 793's "send an acknowledgment" rule
	// for unacceptable segments.
	if seg.TCP.Flags&wire.FlagSYN != 0 ||
		(len(seg.Payload) > 0 && seg.TCP.Seq != pcb.RcvNxt) {
		if err := s.send(c, nil, wire.FlagACK); err != nil {
			s.teardown(c)
		}
		return
	}
	if n := len(seg.Payload); n > 0 && seg.TCP.Seq == pcb.RcvNxt {
		pcb.RcvNxt += uint32(n)
		var response []byte
		if c.rx != nil && c.rx.h != nil {
			response = c.rx.h(c, seg.Payload)
		} else {
			if c.rx == nil {
				c.rx = new(recv)
			}
			q := append(c.rx.q, append([]byte(nil), seg.Payload...))
			if len(q) > rxQueueMax {
				q[0] = nil // cleared, or the dropped payload stays reachable
				q = q[1:]
			}
			c.rx.q = q
		}
		if response != nil {
			if err := s.send(c, response, wire.FlagACK|wire.FlagPSH); err != nil {
				s.teardown(c)
				return
			}
		} else {
			// Pure window-update acknowledgement.
			if err := s.send(c, nil, wire.FlagACK); err != nil {
				s.teardown(c)
				return
			}
		}
	}
	if seg.TCP.Flags&wire.FlagFIN != 0 {
		// Honour a FIN only in order: its sequence number (after any
		// payload in the same segment) must be the next expected octet.
		if seg.TCP.Seq+uint32(len(seg.Payload)) != pcb.RcvNxt {
			return
		}
		pcb.RcvNxt++
		pcb.State = core.StateLastAck
		if err := s.send(c, nil, wire.FlagFIN|wire.FlagACK); err == nil {
			// Peer's final ACK will complete teardown in Deliver.
			return
		}
		s.teardown(c)
	}
}

// Receive pops the oldest unread data payload from the connection's
// receive queue, or returns nil when nothing is pending. Only a
// connection without a Handler queues: a Handler consumes each payload as
// it arrives and nothing is kept.
func (c *Conn) Receive() []byte {
	if c.Pending() == 0 {
		return nil
	}
	p := c.rx.q[0]
	c.rx.q[0] = nil // cleared, or the array keeps p reachable
	c.rx.q = c.rx.q[1:]
	return p
}

// Pending returns the number of received payloads waiting in the queue.
func (c *Conn) Pending() int {
	if c.rx == nil {
		return 0
	}
	return len(c.rx.q)
}

// Pump shuttles frames between two endpoints until both outboxes are
// empty, returning the number of frames delivered. It is the examples'
// in-memory "wire". Frames that fail to parse or route return an error.
func Pump(a, b Endpoint) (int, error) {
	delivered := 0
	for rounds := 0; ; rounds++ {
		if rounds > 10000 {
			return delivered, fmt.Errorf("engine: pump did not quiesce after %d frames", delivered)
		}
		moved := false
		for _, frame := range a.Drain() {
			if _, err := b.Deliver(frame); err != nil {
				return delivered, err
			}
			delivered++
			moved = true
		}
		for _, frame := range b.Drain() {
			if _, err := a.Deliver(frame); err != nil {
				return delivered, err
			}
			delivered++
			moved = true
		}
		if !moved {
			return delivered, nil
		}
	}
}

// PCBs returns every PCB in the stack's demultiplexer, listeners included,
// sorted by local port, then remote address and port, so the order is
// stable across demultiplexer implementations. It walks the table once.
func (s *Stack) PCBs() []*core.PCB {
	var out []*core.PCB
	s.demux.Walk(func(p *core.PCB) bool {
		out = append(out, p)
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		if a.LocalPort != b.LocalPort {
			return a.LocalPort < b.LocalPort
		}
		if a.RemoteAddr != b.RemoteAddr {
			return string(a.RemoteAddr[:]) < string(b.RemoteAddr[:])
		}
		return a.RemotePort < b.RemotePort
	})
	return out
}

// Retransmit re-queues every connection's unacknowledged segment and
// returns how many were queued. It is the manual, sweep-everything face
// of the per-connection retransmission timers that Stack.Tick drives:
// callers without a clock use it when a link may have dropped frames
// (see examples/netpipe); on a lossless in-memory link it is a no-op by
// the time Pump quiesces. A manual sweep does not advance any timer's
// backoff or retry count.
func (s *Stack) Retransmit() int {
	n := 0
	s.demux.Walk(func(p *core.PCB) bool {
		if c, ok := p.UserData.(*Conn); ok && c.tx != nil && c.tx.unacked != nil && p.State != core.StateClosed {
			s.requeueUnacked(c)
			n++
		}
		return true
	})
	return n
}
