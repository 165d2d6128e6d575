// Package server is the real-socket frontend: a net.Listener whose
// accepted kernel connections are bridged, byte for byte, through the
// sharded demultiplexing engine. For every accepted connection the
// frontend synthesizes the corresponding SYN/data/FIN wire frames into
// the shard.StackSet — so live traffic exercises RSS steering, the
// chosen demux discipline, the engine TCP state machine, and the timer
// wheel — and mirrors the engine's egress segments back onto the socket.
// The application layer on top of those synthetic streams is the TPC/A
// transaction protocol (protocol.go).
//
// Concurrency shape: one goroutine per connection reads the socket and
// one writes it, but a single engine-loop goroutine owns the StackSet
// and every session's TCP state — the same single-control-goroutine
// contract the shard package's health ledger assumes. Socket events
// reach the loop over one bounded channel; when the loop falls behind,
// readers block on the channel, kernel socket buffers fill, and the
// clients' own TCP stacks stall — backpressure ends at the sender
// without unbounded buffering anywhere in this process. Frame-level
// shedding below that (inbox and handoff rings, backlog) stays governed
// by the shard layer's graceful-degradation ledger; this layer adds the
// connection-level ledger on top: every accepted connection ends as
// exactly one of served, shed, or shutdown-drained.
//
// The frontend has no tunables: buffer and queue sizes and the tick
// cadence are the Default* constants below.
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"tcpdemux/internal/core"
	"tcpdemux/internal/discipline"
	"tcpdemux/internal/engine"
	"tcpdemux/internal/rng"
	"tcpdemux/internal/shard"
	"tcpdemux/internal/telemetry"
	"tcpdemux/internal/wire"
)

// The frontend's fixed sizes. No binary, test or benchmark ever ran with
// other values, so they are constants, not Config fields.
const (
	// DefaultReadBuf is the per-connection socket read buffer in bytes,
	// the granularity of synthesized data segments.
	DefaultReadBuf = 4096
	// DefaultEventBacklog bounds the engine loop's event channel — the
	// backpressure point between the readers and the engine.
	DefaultEventBacklog = 1024
	// DefaultWriteBacklog bounds each session's queued-response frames; a
	// client that stops reading long enough to fill it is shed.
	DefaultWriteBacklog = 64
	// DefaultTickInterval is the wall-clock cadence at which the engine's
	// virtual clock advances. The server package sits outside the
	// simulator's virtual-time boundary: here, virtual seconds are wall
	// seconds since the server started.
	DefaultTickInterval = 5 * time.Millisecond
)

// Config parameterizes a Server.
type Config struct {
	// Addr is the kernel listen address (host:port; port 0 picks a free
	// port). Required.
	Addr string
	// Discipline selects each shard's private demux table; build it with
	// discipline.Select. Required.
	Discipline discipline.Selection
	// Shards is the StackSet's queue count (default 4).
	Shards int
	// Seed drives the steering key, shard ISS generators, and the
	// synthetic client ISS draws.
	Seed uint64
	// Registry re-homes all telemetry (engine, shard, and server_*
	// families) when set; otherwise a private registry is created.
	Registry *telemetry.Registry
}

// Stats is the frontend's conservation ledger, read from the server_*
// counters on the registry (the only place the counts are kept). Shed sums
// server_shed_total over its reasons; Active is Accepted less the three
// outcomes, so after Shutdown returns it is zero and Accepted == Served +
// Shed + Drained.
type Stats struct {
	Accepted uint64
	Active   uint64
	Served   uint64
	Shed     uint64
	Drained  uint64
	Txns     uint64
}

// event is one socket-side occurrence crossing into the engine loop.
type event struct {
	kind evKind
	sess *session
	data []byte
}

type evKind uint8

const (
	evOpen evKind = iota
	evData
	evClose
	evError
)

// Server is a running frontend.
type Server struct {
	ln  net.Listener
	set *shard.StackSet
	reg *telemetry.Registry
	m   *telemetry.ServerMetrics

	events chan event
	// stop tells the engine loop to drain and exit; done tells blocked
	// readers (and the accept loop) to abandon event posts; loopExit
	// closes when the engine loop has fully drained.
	stop     chan struct{}
	done     chan struct{}
	loopExit chan struct{}

	readers sync.WaitGroup
	writers sync.WaitGroup

	stopOnce sync.Once
	start    time.Time

	// Accept-loop-owned: the accept ordinal (synthetic endpoint
	// allocator) and the ISS draw source.
	nextID uint64      //demux:singlewriter(owner=accept)
	iss    *rng.Source //demux:singlewriter(owner=accept)

	// Engine-loop-owned: the session registry (keyed by engine-side PCB
	// key), the TPC/A ledger, and the egress frame queue the StackSet
	// tap fills during Deliver/Tick.
	sessions map[core.Key]*session //demux:singlewriter(owner=engineloop)
	ledger   *Ledger               //demux:singlewriter(owner=engineloop)
	egressQ  [][]byte              //demux:singlewriter(owner=engineloop)
}

// New builds and starts a frontend: the kernel listener is bound, the
// StackSet is listening on ServicePort behind it, and the accept and
// engine loops are running. Stop it with Shutdown.
func New(cfg Config) (*Server, error) {
	if cfg.Addr == "" {
		return nil, errors.New("server: Config.Addr is required")
	}
	if cfg.Discipline.Name == "" {
		return nil, errors.New("server: Config.Discipline is required (build it with discipline.Select)")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	set, err := shard.NewStackSet(wire.MakeAddr(10, 0, 0, 1), shard.Config{
		Shards:     cfg.Shards,
		NewDemuxer: cfg.Discipline.PerShard(),
		Seed:       cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	set.SetTelemetry(reg)
	s := &Server{
		set:      set,
		reg:      reg,
		m:        telemetry.NewServerMetrics(reg),
		events:   make(chan event, DefaultEventBacklog),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		loopExit: make(chan struct{}),
		iss:      rng.New(cfg.Seed ^ 0x6c657473_676f2121),
		sessions: make(map[core.Key]*session),
		ledger:   NewLedger(),
	}
	set.SetEgressTap(s.tapFrame)
	if err := set.Listen(ServicePort, s.handleApp); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	s.start = time.Now()
	go s.acceptLoop()
	go s.loop()
	return s, nil
}

// Addr returns the kernel listener's bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Registry returns the registry carrying the server's telemetry.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// StackSet exposes the sharded engine for inspection.
func (s *Server) StackSet() *shard.StackSet { return s.set }

// Stats returns the connection conservation ledger.
func (s *Server) Stats() Stats {
	m := s.m
	st := Stats{
		Served: m.Served.Value(),
		Shed: m.ShedWriteBacklog.Value() + m.ShedSocketError.Value() + m.ShedProtocol.Value() +
			m.ShedHandshake.Value() + m.ShedEngineReset.Value(),
		Drained: m.Drained.Value(),
		Txns:    m.Txns.Value(),
	}
	// Accepted is read last: every outcome follows its accept, so a
	// concurrent reader can overstate Active by sessions that opened
	// mid-read but can never see more outcomes than accepts.
	st.Accepted = m.Accepted.Value()
	st.Active = st.Accepted - st.Served - st.Shed - st.Drained
	return st
}

// Shutdown gracefully stops the server: the listener closes, in-flight
// events (transactions already read from sockets) are processed, every
// remaining session is closed through the engine's FIN handshake and
// counted as drained, writers flush, and the conservation ledger
// balances. Returns ctx's error if the drain outlives it (the drain
// keeps finishing in the background; loopExit still closes).
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopOnce.Do(func() {
		s.ln.Close()
		close(s.stop)
	})
	select {
	case <-s.loopExit:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close is Shutdown without a deadline.
func (s *Server) Close() error { return s.Shutdown(context.Background()) }

// now is the engine's virtual clock: wall seconds since start (this
// package is outside the virtual-time boundary — see DefaultTickInterval).
func (s *Server) now() float64 { return time.Since(s.start).Seconds() }

// acceptLoop owns the kernel listener, the accept ordinal, and the ISS
// source. Each accepted connection becomes a session whose open event is
// posted to the engine loop before its reader starts, so evOpen always
// precedes the session's first evData on the FIFO event channel.
//
//demux:owner(accept)
func (s *Server) acceptLoop() {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed (Shutdown) or fatal
		}
		sess := newSession(s.nextID, c, s.set.Addr(), uint32(s.iss.Uint64()))
		s.nextID++
		select {
		case s.events <- event{kind: evOpen, sess: sess}:
		case <-s.done:
			c.Close()
			return
		}
		s.readers.Add(1)
		go s.readLoop(sess)
	}
}

// post offers an event to the engine loop, giving up when the server is
// past the point of consuming reader events.
func (s *Server) post(ev event) bool {
	select {
	case s.events <- ev:
		return true
	case <-s.done:
		return false
	}
}

// readLoop pulls bytes off one kernel connection into bounded reads and
// posts them to the engine loop. The post blocks when the loop is
// behind — that block, plus the fixed read buffer, is the frontend's entire
// ingress buffering; everything beyond it backs up into the kernel
// socket buffer and from there to the client's TCP stack.
func (s *Server) readLoop(sess *session) {
	defer s.readers.Done()
	buf := make([]byte, DefaultReadBuf)
	for {
		n, err := sess.conn.Read(buf)
		if n > 0 {
			data := make([]byte, n)
			copy(data, buf[:n])
			if !s.post(event{kind: evData, sess: sess, data: data}) {
				return
			}
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				s.post(event{kind: evClose, sess: sess})
			} else {
				s.post(event{kind: evError, sess: sess})
			}
			return
		}
	}
}

// writeLoop flushes engine output payloads to one kernel connection and
// closes it once the engine loop closes the queue — the socket close is
// what finally unblocks that session's reader. Write errors are not
// fatal here: the queue keeps draining so the engine loop never blocks,
// and the read side surfaces the failure as evError.
func (s *Server) writeLoop(sess *session) {
	defer s.writers.Done()
	for b := range sess.writeQ {
		if _, err := sess.conn.Write(b); err != nil {
			continue
		}
	}
	sess.conn.Close()
}

// tapFrame is the StackSet egress tap: it runs inside Deliver/Tick,
// part-way through a frame, so it only queues; routing happens in
// pumpEgress after the engine call returns.
//
//demux:owner(engineloop)
func (s *Server) tapFrame(frame []byte) {
	s.egressQ = append(s.egressQ, frame)
}

// loop is the engine loop: the single goroutine that owns the StackSet
// (Deliver/Tick/Release), every session's TCP state, and the TPC/A
// ledger.
//
//demux:owner(engineloop)
func (s *Server) loop() {
	defer close(s.loopExit)
	tick := time.NewTicker(DefaultTickInterval)
	defer tick.Stop()
	for {
		select {
		case ev := <-s.events:
			s.handleEvent(ev)
			s.pumpEgress()
		case <-tick.C:
			s.set.Tick(s.now())
			s.pumpEgress()
		case <-s.stop:
			s.drainAndExit()
			return
		}
	}
}

// handleEvent advances one session for one socket event, synthesizing
// the corresponding wire frames into the engine.
//
//demux:owner(engineloop)
func (s *Server) handleEvent(ev event) {
	sess := ev.sess
	switch ev.kind {
	case evOpen:
		s.m.Accepted.Inc()
		s.sessions[sess.key] = sess
		s.m.Active.Set(float64(len(s.sessions)))
		s.writers.Add(1)
		go s.writeLoop(sess)
		// The three-way handshake completes synchronously: SYN in, the
		// engine's SYN|ACK through the tap, our ACK back in pumpEgress.
		s.inject(sess, wire.FlagSYN, nil)
	case evData:
		if sess.state != sessEstablished {
			if sess.state == sessHandshake {
				// The engine refused the SYN (no SYN|ACK ever came), yet
				// the client is sending: shed the connection.
				s.abort(sess, s.m.ShedHandshake)
			}
			return
		}
		s.m.BytesIn.Add(uint64(len(ev.data)))
		s.inject(sess, wire.FlagACK|wire.FlagPSH, ev.data)
	case evClose:
		s.clientClose(sess, s.m.Served)
	case evError:
		if sess.state == sessClosed {
			return
		}
		s.abort(sess, s.m.ShedSocketError)
	}
}

// inject synthesizes one client-side frame and delivers it through the
// full stack: RSS steering, the shard's discipline lookup, the engine
// state machine. Output frames land on egressQ via the tap.
//
//demux:owner(engineloop)
func (s *Server) inject(sess *session, flags uint8, payload []byte) {
	frame, err := sess.synth(flags, payload)
	if err != nil {
		s.abort(sess, s.m.ShedProtocol)
		return
	}
	s.m.FramesSynth.Inc()
	s.set.Deliver(frame)
}

// clientClose starts the orderly close of a session's synthetic
// connection (client-side FIN; the engine answers FIN|ACK and routeFrame
// finishes the session on the ledger counter `as`: Served, or Drained
// when Shutdown reuses it).
//
//demux:owner(engineloop)
func (s *Server) clientClose(sess *session, as *telemetry.Counter) {
	switch sess.state {
	case sessEstablished:
		sess.closing = as
		sess.state = sessFinSent
		s.inject(sess, wire.FlagFIN|wire.FlagACK, nil)
	case sessHandshake:
		// Closed before the engine ever established it.
		if as == s.m.Drained {
			s.finish(sess, as)
		} else {
			s.abort(sess, s.m.ShedHandshake)
		}
	}
}

// abort sheds a session: a reset clears the engine-side PCB immediately
// (no retransmission tail) and the session finishes with the given shed
// reason.
//
//demux:owner(engineloop)
func (s *Server) abort(sess *session, reason *telemetry.Counter) {
	if sess.state == sessClosed {
		return
	}
	if frame, err := sess.synth(wire.FlagRST, nil); err == nil {
		s.m.FramesSynth.Inc()
		s.set.Deliver(frame)
	}
	s.finish(sess, reason)
}

// finish retires a session exactly once: session registry, the StackSet
// claim, the writer queue (whose close cascades to the socket close and
// the reader's exit), and the ledger — `as` is the one outcome counter
// this session adds to: Served, Drained, or a shed reason.
//
//demux:owner(engineloop)
func (s *Server) finish(sess *session, as *telemetry.Counter) {
	if sess.state == sessClosed {
		return
	}
	sess.state = sessClosed
	sess.appBuf = nil
	delete(s.sessions, sess.key)
	s.set.Release(sess.key)
	close(sess.writeQ)
	s.m.Active.Set(float64(len(s.sessions)))
	as.Inc()
}

// pumpEgress routes every frame the engine produced until the exchange
// quiesces: routing a frame can synthesize acknowledgements back into
// the engine, which can emit more frames. The in-memory exchange always
// quiesces (each round consumes sequence space or completes a close);
// the bound is a livelock guard in the same spirit as engine.Pump's.
//
//demux:owner(engineloop)
func (s *Server) pumpEgress() {
	for rounds := 0; len(s.egressQ) > 0; rounds++ {
		if rounds > 10000 {
			s.egressQ = nil
			return
		}
		frames := s.egressQ
		s.egressQ = nil
		for _, f := range frames {
			s.routeFrame(f)
		}
	}
}

// routeFrame mirrors one engine egress segment onto its session: the
// mini-client consumes SYN|ACK/data/FIN in sequence, writes payloads to
// the socket, and acknowledges synchronously.
//
//demux:owner(engineloop)
func (s *Server) routeFrame(frame []byte) {
	seg, err := wire.ParseSegment(frame)
	if err != nil {
		return
	}
	// Outbound frames carry Src = the engine's endpoint, Dst = the
	// synthetic client; the session registry is keyed by the engine-side
	// PCB key (Local = engine), so build it directly.
	key := core.Key{
		LocalAddr: seg.IP.Src, LocalPort: seg.TCP.SrcPort,
		RemoteAddr: seg.IP.Dst, RemotePort: seg.TCP.DstPort,
	}
	sess, ok := s.sessions[key]
	if !ok || sess.state == sessClosed {
		return // late frame for a finished session
	}
	flags := seg.TCP.Flags
	if flags&wire.FlagRST != 0 {
		// The engine reset the connection (listener refusal, state-machine
		// abort): shed the kernel side.
		s.finish(sess, s.m.ShedEngineReset)
		return
	}
	if flags&wire.FlagSYN != 0 {
		if sess.state != sessHandshake || flags&wire.FlagACK == 0 {
			return // duplicate handshake segment; nothing to do in-memory
		}
		sess.rcvNxt = seg.TCP.Seq + 1
		sess.state = sessEstablished
		s.inject(sess, wire.FlagACK, nil)
		return
	}
	if n := uint32(len(seg.Payload)); n > 0 {
		switch {
		case seg.TCP.Seq == sess.rcvNxt:
			sess.rcvNxt += n
			if !s.enqueueWrite(sess, seg.Payload) {
				return // session shed on write backlog
			}
			s.m.BytesOut.Add(uint64(n))
			s.inject(sess, wire.FlagACK, nil)
		case seg.TCP.Seq+n <= sess.rcvNxt:
			// Duplicate (a retransmission raced a shed acknowledgement):
			// re-acknowledge so the engine releases its buffer.
			s.inject(sess, wire.FlagACK, nil)
			return
		default:
			return // future segment: impossible on the lossless in-memory path
		}
	}
	if flags&wire.FlagFIN != 0 {
		if seg.TCP.Seq+uint32(len(seg.Payload)) != sess.rcvNxt {
			return
		}
		sess.rcvNxt++
		if sess.state == sessFinSent {
			// The engine's FIN|ACK completes the close we initiated; the
			// final ACK lets the engine tear the PCB down (LAST_ACK).
			s.inject(sess, wire.FlagACK, nil)
			s.finish(sess, sess.closing)
			return
		}
		// Engine-initiated close: acknowledge, answer with our own FIN,
		// and let the completion path above finish the session.
		sess.closing = s.m.Served
		sess.state = sessFinSent
		s.inject(sess, wire.FlagFIN|wire.FlagACK, nil)
	}
}

// enqueueWrite hands one engine output payload to the session's writer.
// A full queue means the client has stopped reading while responses kept
// coming — the one place the frontend itself shed-closes under
// backpressure instead of propagating it (blocking the engine loop on
// one slow client would stall every other connection).
//
//demux:owner(engineloop)
func (s *Server) enqueueWrite(sess *session, p []byte) bool {
	b := make([]byte, len(p))
	copy(b, p) // seg.Payload aliases the frame; the writer outlives it
	select {
	case sess.writeQ <- b:
		return true
	default:
		s.abort(sess, s.m.ShedWriteBacklog)
		return false
	}
}

// handleApp is the engine-side application handler: it runs inside
// set.Deliver on the engine-loop goroutine, reassembles request lines
// from the synthetic stream, and serves the TPC/A protocol against the
// single shared ledger. Returning nil lets the engine send a pure ACK.
//
//demux:owner(engineloop)
func (s *Server) handleApp(c *engine.Conn, payload []byte) []byte {
	sess, ok := s.sessions[c.Key()]
	if !ok {
		return nil
	}
	sess.appBuf = append(sess.appBuf, payload...)
	var out []byte
	for {
		i := bytes.IndexByte(sess.appBuf, '\n')
		if i < 0 {
			if len(sess.appBuf) > MaxLineLen {
				sess.appBuf = sess.appBuf[:0]
				s.m.BadTxns.Inc()
				out = append(out, FormatError("line too long")...)
			}
			break
		}
		line := sess.appBuf[:i:i]
		sess.appBuf = sess.appBuf[i+1:]
		req, err := ParseRequest(line)
		if err != nil {
			s.m.BadTxns.Inc()
			out = append(out, FormatError(err.Error())...)
			continue
		}
		a, t, b := s.ledger.Apply(req)
		out = append(out, FormatResponse(req.Account, a, t, b)...)
		s.m.Txns.Inc()
	}
	return out
}

// drainAndExit is graceful shutdown's engine-loop half: consume the
// in-flight events the readers already posted (flushing their
// transactions), cut the readers loose, close every remaining session
// through the engine's FIN handshake as shutdown-drained, and wait for
// the per-connection goroutines so no work outlives Shutdown.
//
//demux:owner(engineloop)
func (s *Server) drainAndExit() {
	// In-flight transactions first: everything already in the channel was
	// read off a socket before the listener closed.
	for {
		select {
		case ev := <-s.events:
			s.handleEvent(ev)
			s.pumpEgress()
			continue
		default:
		}
		break
	}
	close(s.done)
	// Deterministic drain order for the remaining sessions.
	open := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions { //demux:orderinvariant collected then sorted by accept ordinal below
		open = append(open, sess)
	}
	sort.Slice(open, func(i, j int) bool { return open[i].id < open[j].id })
	for _, sess := range open {
		s.clientClose(sess, s.m.Drained)
		s.pumpEgress() // the FIN handshake completes synchronously
		if sess.state != sessClosed {
			// The engine never answered (refused handshake, mid-close
			// state): force the session shut, still accounted as drained.
			s.finish(sess, s.m.Drained)
		}
	}
	// Late reader posts (sockets closing under them) drain into the void
	// until every reader has exited.
	readersIdle := make(chan struct{})
	go func() {
		s.readers.Wait()
		close(readersIdle)
	}()
	idle := false
	for !idle {
		select {
		case ev := <-s.events:
			s.dropLateEvent(ev)
		case <-readersIdle:
			idle = true
		}
	}
	for {
		select {
		case ev := <-s.events:
			s.dropLateEvent(ev)
			continue
		default:
		}
		break
	}
	s.writers.Wait()
	s.set.Tick(s.now())
	if n := len(s.sessions); n != 0 {
		// Belt-and-braces: the ledger must balance; a nonzero residue is a
		// bug worth making loud even outside tests.
		panic(fmt.Sprintf("server: %d sessions still active after drain", n))
	}
}

// dropLateEvent disposes of an event that arrived after the drain: a
// never-registered open's socket is closed; everything else concerns an
// already-finished session.
//
//demux:owner(engineloop)
func (s *Server) dropLateEvent(ev event) {
	if ev.kind == evOpen {
		ev.sess.conn.Close()
	}
}
