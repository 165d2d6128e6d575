//go:build linux

// Package server is the real-socket frontend: a kernel TCP listener whose
// accepted connections are bridged, byte for byte, through the sharded
// demultiplexing engine. For every accepted connection the frontend
// synthesizes the corresponding SYN/data/FIN wire frames into the
// shard.StackSet — so live traffic exercises RSS steering, the chosen
// demux discipline, the engine TCP state machine, and the timer wheel —
// and mirrors the engine's egress segments back onto the socket. The
// application layer on top of those synthetic streams is the TPC/A
// transaction protocol (protocol.go).
//
// Concurrency shape: one readiness loop (DESIGN §16). A single goroutine
// owns the listener, an epoll instance, every accepted descriptor, the
// StackSet and every session's TCP state — the shard package's
// single-owner contract with no second party. One wake-up carries a
// transaction from socket in to socket out: epoll_wait, one read into the
// loop's buffer, one synthesized frame through StackSet.Deliver and the
// handler, the reply written straight back. Nothing is queued on the way
// in: what the loop has not read stays in the kernel socket buffer, and
// backpressure reaches the client's own TCP stack from there. On the way
// out only what a full socket buffer refuses is kept, in a bounded
// per-session buffer; a client that lets it overflow is shed. Frame-level
// shedding below that stays governed by the shard layer's ledger; this
// layer adds the connection-level one: every accepted connection ends as
// exactly one of served, shed, or shutdown-drained.
//
// The frontend has no tunables: buffer sizes and the tick cadence are the
// Default* constants below. It is Linux-only (epoll); protocol.go and
// loadgen.go build everywhere.
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"syscall"
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
	// DefaultReadBuf is the loop's one socket read buffer in bytes, the
	// granularity of synthesized data segments.
	DefaultReadBuf = 4096
	// DefaultWriteBacklog bounds the reply bytes a session may hold for a
	// socket that is not taking them; a client that stops reading long
	// enough to overflow it is shed.
	DefaultWriteBacklog = 64 << 10
	// DefaultTickInterval is the wall-clock cadence at which the engine's
	// virtual clock advances while there is traffic; an idle loop backs off
	// to maxIdleTick (a tick is all that wakes it, and nothing the engine
	// times is finer than the shards' 50 ms heartbeat). The server package
	// sits outside the simulator's virtual-time boundary: here, virtual
	// seconds are wall seconds since the server started.
	DefaultTickInterval = 5 * time.Millisecond
	maxIdleTick         = 40 * time.Millisecond
	// maxEvents is how many ready descriptors one epoll_wait reports.
	maxEvents = 128
)

// Config parameterizes a Server.
type Config struct {
	// Addr is the kernel listen address (host:port; port 0 picks a free
	// port). Required.
	Addr string
	// Discipline selects each shard's private demux table; build it with
	// discipline.Select. Required. Its Seed is overwritten by Seed below.
	Discipline discipline.Selection
	// Shards is the StackSet's queue count (default 4).
	Shards int
	// Seed drives the steering key, shard ISS generators, the synthetic
	// client ISS draws, and each shard table's secret key and watchdog
	// (discipline.Selection.Seed).
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

// Server is a running frontend.
type Server struct {
	set  *shard.StackSet
	reg  *telemetry.Registry
	m    *telemetry.ServerMetrics
	addr string

	// The loop's descriptors: the listener, and the epoll instance, which
	// is itself registered with the Go runtime's poller (ep, wait) so that
	// an idle loop parks as a goroutine, not as a thread in epoll_wait.
	// Shutdown sets stopping and expires ep's read deadline to wake it;
	// loopExit closes when the loop has drained and gone.
	lfd, epfd int
	ep        *os.File
	wait      syscall.RawConn
	stopping  atomic.Bool
	loopExit  chan struct{}
	start     time.Time

	// Engine-loop-owned: the accept ordinal (the epoll generation, and
	// with the descriptor the synthetic endpoint) and the ISS draw source;
	// the open sessions, indexed by descriptor, and how many there are;
	// the TPC/A ledger; the egress frames the StackSet tap queued during
	// Deliver/Tick; the one read buffer.
	nextID    uint64               //demux:singlewriter(owner=engineloop)
	iss       *rng.Source          //demux:singlewriter(owner=engineloop)
	conns     []*session           //demux:singlewriter(owner=engineloop)
	active    int                  //demux:singlewriter(owner=engineloop)
	ledger    *Ledger              //demux:singlewriter(owner=engineloop)
	egressQ   [][]byte             //demux:singlewriter(owner=engineloop)
	rbuf      [DefaultReadBuf]byte //demux:singlewriter(owner=engineloop)
	acceptOff bool                 //demux:singlewriter(owner=engineloop)
}

// New builds and starts a frontend: the kernel listener is bound, the
// StackSet is listening on ServicePort behind it, and the readiness loop
// is running. Stop it with Shutdown.
func New(cfg Config) (*Server, error) {
	s, err := newServer(cfg)
	if err != nil {
		return nil, err
	}
	go s.loop()
	return s, nil
}

// newServer is New without the loop: whoever calls the loop-owned
// functions next is the owner (the loop, or a test driving them by hand).
func newServer(cfg Config) (*Server, error) {
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
	cfg.Discipline.Seed = cfg.Seed
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
		loopExit: make(chan struct{}),
		iss:      rng.New(cfg.Seed ^ 0x6c657473_676f2121),
		ledger:   NewLedger(),
	}
	set.SetEgressTap(s.tapFrame)
	if err := set.Listen(ServicePort, s.handleApp); err != nil {
		return nil, err
	}
	if s.lfd, s.addr, err = listenTCP(cfg.Addr); err != nil {
		return nil, err
	}
	// An epoll descriptor is readable while it has events to report, and
	// os.NewFile hands a non-blocking descriptor to the runtime's poller;
	// setting a deadline fails if the poller did not take it.
	if s.epfd, err = syscall.EpollCreate1(syscall.EPOLL_CLOEXEC); err == nil {
		_ = syscall.SetNonblock(s.epfd, true) // if it fails, so does the deadline
		s.ep = os.NewFile(uintptr(s.epfd), "epoll")
		if err = s.ep.SetReadDeadline(time.Time{}); err == nil {
			if s.wait, err = s.ep.SyscallConn(); err == nil {
				err = s.epollCtl(syscall.EPOLL_CTL_ADD, s.lfd, syscall.EPOLLIN, 0)
			}
		}
	}
	if err != nil {
		syscall.Close(s.lfd)
		s.ep.Close()
		return nil, fmt.Errorf("server: epoll: %w", err)
	}
	s.start = time.Now()
	return s, nil
}

// Addr returns the kernel listener's bound address.
func (s *Server) Addr() string { return s.addr }

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

// Shutdown gracefully stops the server: the loop is woken, finishes the
// batch of ready sockets it is in, closes the listener, closes every
// remaining session through the engine's FIN handshake (counted as
// drained) and its socket, and the conservation ledger balances. Returns
// ctx's error if the drain outlives it (the loop keeps finishing in the
// background; loopExit still closes).
func (s *Server) Shutdown(ctx context.Context) error {
	// The loop looks at stopping after every deadline it sets itself, so
	// either it sees the flag or this deadline is the one that stands. The
	// call fails only once the loop has gone and closed ep.
	if !s.stopping.Swap(true) {
		_ = s.ep.SetReadDeadline(time.Now())
	}
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

// epollCtl registers, re-registers or removes fd with the readiness mask
// events, tagged with the generation gen.
func (s *Server) epollCtl(op, fd int, events uint32, gen int32) error {
	ev := syscall.EpollEvent{Events: events, Fd: int32(fd), Pad: gen}
	return syscall.EpollCtl(s.epfd, op, fd, &ev)
}

// loop is the readiness loop: the single goroutine that owns every
// descriptor, the StackSet (Deliver/Tick/Release), every session's TCP
// state, and the TPC/A ledger. It never spins: sockets are registered
// level-triggered, each ready one gets one read per wake, EPOLLOUT is
// registered only while a session holds unsent bytes, and with nothing
// ready the goroutine parks in the runtime's poller until the epoll
// instance turns readable or its read deadline, the next tick, passes.
//
//demux:owner(engineloop)
func (s *Server) loop() {
	defer close(s.loopExit)
	var (
		events [maxEvents]syscall.EpollEvent
		n      int
		err    error
		tick   time.Time
		every  = DefaultTickInterval
		busy   bool
	)
	ready := func(fd uintptr) bool {
		for {
			if n, err = syscall.EpollWait(int(fd), events[:], 0); err != syscall.EINTR {
				return n != 0
			}
		}
	}
	for {
		if now := time.Now(); !now.Before(tick) {
			s.set.Tick(s.now())
			s.pumpEgress()
			if s.acceptOff {
				s.acceptOff = s.epollCtl(syscall.EPOLL_CTL_MOD, s.lfd, syscall.EPOLLIN, 0) != nil
			}
			// No event since the last tick: halve the cadence.
			if busy {
				every = DefaultTickInterval
			} else if every < maxIdleTick {
				every *= 2
			}
			busy = false
			tick = now.Add(every)
			if err = s.ep.SetReadDeadline(tick); err != nil {
				panic(fmt.Sprintf("server: arming the tick: %v", err))
			}
		}
		if s.stopping.Load() {
			s.drainAndExit()
			return
		}
		n = 0 // a deadline already past returns without calling ready at all
		if werr := s.wait.Read(ready); err == nil && !errors.Is(werr, os.ErrDeadlineExceeded) {
			err = werr
		}
		if err != nil {
			panic(fmt.Sprintf("server: epoll_wait: %v", err))
		}
		busy = busy || n > 0
		for i := 0; i < n; i++ {
			s.dispatch(events[i])
		}
	}
}

// dispatch handles one readiness event. An event for a descriptor closed
// earlier in the same batch finds no session; one for a descriptor closed
// and accepted again earlier in the batch finds a session of another
// generation. Both are dropped: level-triggered polling reports whatever
// the new holder has ready on the next wait.
//
//demux:owner(engineloop)
func (s *Server) dispatch(ev syscall.EpollEvent) {
	fd := int(ev.Fd)
	if fd == s.lfd {
		s.acceptReady()
		return
	}
	if fd >= len(s.conns) || s.conns[fd] == nil || s.conns[fd].gen != ev.Pad {
		return
	}
	sess := s.conns[fd]
	if ev.Events&syscall.EPOLLOUT != 0 {
		s.send(sess, nil)
		s.pumpEgress()
	}
	if ev.Events&^syscall.EPOLLOUT != 0 && s.conns[fd] == sess {
		s.readReady(sess)
	}
}

// acceptReady empties the listener's queue. Each connection (non-blocking,
// Nagle off: a reply is one small write) is registered under its
// descriptor, opened in the engine (the three-way handshake completes
// synchronously: SYN in, the engine's SYN|ACK through the tap, our ACK
// back in pumpEgress) and given a first read in the same wake: a client
// that dials and sends at once is answered without another trip through
// epoll_wait.
//
//demux:owner(engineloop)
func (s *Server) acceptReady() {
	for {
		fd, _, err := syscall.Accept4(s.lfd, syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC)
		if err == nil && fd > maxSessionFD {
			// A descriptor no synthetic endpoint can name: refused as if
			// the process had run out of them, and never counted.
			syscall.Close(fd)
			err = syscall.EMFILE
		}
		switch err {
		case nil:
		case syscall.EAGAIN, syscall.EINTR, syscall.ECONNABORTED:
			return // empty, or reported again on the next wait
		default:
			// Out of descriptors or memory with the queue still ready: stop
			// polling the listener until the next tick, or the loop spins.
			s.acceptOff = s.epollCtl(syscall.EPOLL_CTL_MOD, s.lfd, 0, 0) == nil
			return
		}
		_ = syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1) // slower without, not wrong
		sess := newSession(int32(fd), int32(s.nextID), s.set.Addr(), uint32(s.iss.Uint64()))
		if s.epollCtl(syscall.EPOLL_CTL_ADD, fd, sess.events, sess.gen) != nil {
			syscall.Close(fd)
			continue
		}
		s.nextID++
		for fd >= len(s.conns) {
			s.conns = append(s.conns, nil)
		}
		s.conns[fd] = sess
		s.m.Accepted.Inc()
		s.active++
		s.m.Active.Set(float64(s.active))
		s.inject(sess, wire.FlagSYN, nil)
		s.pumpEgress()
		if s.conns[fd] == sess {
			s.readReady(sess)
		}
	}
}

// readReady takes one read off a ready socket into the loop's buffer and
// advances the session by what it found: data becomes one synthesized
// segment, end of stream starts the orderly close, an error sheds.
//
//demux:owner(engineloop)
func (s *Server) readReady(sess *session) {
	n, err := syscall.Read(int(sess.fd), s.rbuf[:])
	switch {
	case err == syscall.EAGAIN || err == syscall.EINTR: // reported again if there is anything
	case err != nil:
		s.abort(sess, s.m.ShedSocketError)
	case n == 0:
		// End of stream stays readable for ever: stop polling for it. The
		// close waits for replies the socket has yet to take (send).
		s.interest(sess, sess.events&^syscall.EPOLLIN)
		if sess.eof = true; sess.pending() == 0 {
			s.clientClose(sess, false)
			s.pumpEgress()
		}
	case sess.state == sessEstablished:
		s.m.BytesIn.Add(uint64(n))
		s.inject(sess, wire.FlagACK|wire.FlagPSH, s.rbuf[:n])
		s.pumpEgress()
	case sess.state == sessHandshake:
		// The engine refused the SYN (no SYN|ACK ever came), yet the
		// client is sending: shed the connection.
		s.abort(sess, s.m.ShedHandshake)
	}
}

// interest changes the readiness mask a session's socket is polled for.
//
//demux:owner(engineloop)
func (s *Server) interest(sess *session, events uint32) {
	if events != sess.events && s.epollCtl(syscall.EPOLL_CTL_MOD, int(sess.fd), events, sess.gen) == nil {
		sess.events = events
	}
}

// send writes p to the session's socket, behind whatever the session still
// holds for it; flushing under EPOLLOUT is send with nothing new. What a
// full socket buffer does not take waits in the session's bounded buffer,
// allocated the first time a write falls short:
// the loop never blocks on one slow client (that would stall every other
// connection), so a client that has stopped reading while replies kept
// coming overflows the buffer and is shed — the one place the frontend
// sheds under backpressure instead of propagating it. Once the buffer is
// empty the close of a client that had already ended its stream starts.
//
//demux:owner(engineloop)
func (s *Server) send(sess *session, p []byte) bool {
	if sess.pending() > 0 {
		sess.bufs.wbuf = append(sess.bufs.wbuf, p...)
		p = sess.bufs.wbuf
	}
	n, err := writeSome(int(sess.fd), p)
	switch rest := p[n:]; {
	case err != nil:
		s.abort(sess, s.m.ShedSocketError)
		return false
	case len(rest) > DefaultWriteBacklog:
		s.abort(sess, s.m.ShedWriteBacklog)
		return false
	case len(rest) > 0:
		b := sess.buffers()
		b.wbuf = append(b.wbuf[:0], rest...)
		s.interest(sess, sess.events|syscall.EPOLLOUT)
	default:
		if sess.bufs != nil {
			sess.bufs.wbuf = nil
		}
		s.interest(sess, sess.events&^syscall.EPOLLOUT)
		if sess.eof {
			s.clientClose(sess, false)
		}
	}
	return true
}

// tapFrame is the StackSet egress tap: it runs inside Deliver/Tick,
// part-way through a frame, so it only queues; routing happens in
// pumpEgress after the engine call returns.
//
//demux:owner(engineloop)
func (s *Server) tapFrame(frame []byte) {
	s.egressQ = append(s.egressQ, frame)
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
// finishes the session as served, or as drained when Shutdown closes it).
//
//demux:owner(engineloop)
func (s *Server) clientClose(sess *session, drained bool) {
	switch sess.state {
	case sessEstablished:
		sess.drained = drained
		sess.state = sessFinSent
		s.inject(sess, wire.FlagFIN|wire.FlagACK, nil)
	case sessHandshake:
		// Closed before the engine ever established it.
		if drained {
			s.finish(sess, s.m.Drained)
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

// finish retires a session exactly once: its descriptor slot, the
// StackSet's record of it, the socket (closing it ends its epoll
// registration) and the ledger — `as` is the one outcome counter this
// session adds to: Served, Drained, or a shed reason.
//
//demux:owner(engineloop)
func (s *Server) finish(sess *session, as *telemetry.Counter) {
	if sess.state == sessClosed {
		return
	}
	sess.state = sessClosed
	sess.bufs = nil
	s.set.Release(sess.key)
	syscall.Close(int(sess.fd))
	s.conns[sess.fd] = nil
	s.active--
	s.m.Active.Set(float64(s.active))
	as.Inc()
}

// pumpEgress routes every frame the engine produced until the exchange
// quiesces: routing a frame can synthesize acknowledgements back into
// the engine, which can emit more frames onto the queue being walked. The
// in-memory exchange always quiesces (each frame consumes sequence space
// or completes a close); the bound is a livelock guard in the same spirit
// as engine.Pump's.
//
//demux:owner(engineloop)
func (s *Server) pumpEgress() {
	for i := 0; i < len(s.egressQ) && i < 1<<16; i++ {
		frame := s.egressQ[i]
		s.egressQ[i] = nil
		s.routeFrame(frame)
	}
	s.egressQ = s.egressQ[:0]
}

// routeFrame mirrors one engine egress segment onto its session: the
// mini-client consumes SYN|ACK/data/FIN in sequence, writes payloads to
// the socket, and acknowledges synchronously.
//
//demux:owner(engineloop)
func (s *Server) routeFrame(frame []byte) {
	key, seq, flags, payload, ok := peekEgress(frame)
	if !ok {
		return
	}
	sess := s.session(key)
	if sess == nil {
		return // late frame for a finished session
	}
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
		sess.rcvNxt = seq + 1
		sess.state = sessEstablished
		s.inject(sess, wire.FlagACK, nil)
		return
	}
	if n := uint32(len(payload)); n > 0 {
		switch {
		case seq == sess.rcvNxt:
			// The socket first, the acknowledgement after: the client is
			// waiting for the one and nobody for the other.
			sess.rcvNxt += n
			if !s.send(sess, payload) {
				return // session shed
			}
			s.m.BytesOut.Add(uint64(n))
			s.inject(sess, wire.FlagACK, nil)
		case seq+n <= sess.rcvNxt:
			// Duplicate (a retransmission raced a shed acknowledgement):
			// re-acknowledge so the engine releases its buffer.
			s.inject(sess, wire.FlagACK, nil)
			return
		default:
			return // future segment: impossible on the lossless in-memory path
		}
	}
	if flags&wire.FlagFIN != 0 {
		if seq+uint32(len(payload)) != sess.rcvNxt {
			return
		}
		sess.rcvNxt++
		if sess.state == sessFinSent {
			// The engine's FIN|ACK completes the close we initiated; the
			// final ACK lets the engine tear the PCB down (LAST_ACK).
			s.inject(sess, wire.FlagACK, nil)
			if sess.drained {
				s.finish(sess, s.m.Drained)
			} else {
				s.finish(sess, s.m.Served)
			}
			return
		}
		// Engine-initiated close: acknowledge, answer with our own FIN,
		// and let the completion path above finish the session.
		sess.drained = false
		sess.state = sessFinSent
		s.inject(sess, wire.FlagFIN|wire.FlagACK, nil)
	}
}

// handleApp is the engine-side application handler: it runs inside
// set.Deliver on the engine-loop goroutine, cuts the synthetic stream
// into request lines, and serves the TPC/A protocol against the single
// shared ledger. A line that arrives whole, the usual case, is served
// from payload where it lies; only a line split across segments passes
// through the session's buffer, which is allocated then and emptied,
// capacity kept, when the line completes. Returning nil lets the engine
// send a pure ACK.
//
//demux:owner(engineloop)
func (s *Server) handleApp(c *engine.Conn, payload []byte) []byte {
	sess := s.session(c.Key())
	if sess == nil {
		return nil
	}
	var out []byte
	for {
		i := bytes.IndexByte(payload, '\n')
		if i < 0 {
			break
		}
		line := payload[:i]
		if b := sess.bufs; b != nil && len(b.appBuf) > 0 {
			line = append(b.appBuf, line...)
			b.appBuf = line[:0]
		}
		payload = payload[i+1:]
		var reply []byte
		if req, err := ParseRequest(line); err != nil {
			s.m.BadTxns.Inc()
			reply = FormatError(err.Error())
		} else {
			a, t, b := s.ledger.Apply(req)
			reply = FormatResponse(req.Account, a, t, b)
			s.m.Txns.Inc()
		}
		if out == nil {
			out = reply // one line, one allocation: the formatter's
		} else {
			out = append(out, reply...)
		}
	}
	if len(payload) == 0 {
		return out
	}
	b := sess.buffers()
	if len(b.appBuf)+len(payload) > MaxLineLen {
		b.appBuf = b.appBuf[:0]
		s.m.BadTxns.Inc()
		out = append(out, FormatError("line too long")...)
	} else {
		b.appBuf = append(b.appBuf, payload...)
	}
	return out
}

// session returns the open session whose engine-side key is key, or nil:
// the one in the descriptor slot key names, if it is that holder of the
// descriptor and not an earlier or later one.
//
//demux:owner(engineloop)
func (s *Server) session(key core.Key) *session {
	fd, ok := fdOf(key)
	if !ok || fd >= len(s.conns) {
		return nil
	}
	if sess := s.conns[fd]; sess != nil && sess.key == key {
		return sess
	}
	return nil
}

// drainAndExit is graceful shutdown: close every remaining session through
// the engine's FIN handshake as shutdown-drained, and every descriptor, so
// nothing outlives Shutdown.
//
//demux:owner(engineloop)
func (s *Server) drainAndExit() {
	// Descriptor order: deterministic, and the walk needs no snapshot:
	// nothing is accepted during the drain, so slots only ever empty.
	for _, sess := range s.conns {
		if sess == nil {
			continue
		}
		s.clientClose(sess, true)
		s.pumpEgress() // the FIN handshake completes synchronously
		// If the engine never answered (refused handshake, mid-close
		// state), force the session shut, still accounted as drained.
		s.finish(sess, s.m.Drained)
	}
	syscall.Close(s.lfd)
	s.ep.Close()
	s.set.Tick(s.now())
	if n := s.active; n != 0 {
		// Belt-and-braces: the ledger must balance; a nonzero residue is a
		// bug worth making loud even outside tests.
		panic(fmt.Sprintf("server: %d sessions still active after drain", n))
	}
}

// listenTCP binds a kernel listener on addr and returns a descriptor the
// caller owns, and the address it is bound to. The binding is net.Listen's
// (address parsing, SO_REUSEADDR, the backlog from the kernel's somaxconn,
// not syscall.SOMAXCONN's 128, non-blocking mode); only a duplicate of
// the descriptor outlives the call, so the runtime's poller never sees it.
func listenTCP(addr string) (fd int, bound string, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return -1, "", err
	}
	defer ln.Close()
	rc, err := ln.(*net.TCPListener).SyscallConn()
	if err != nil {
		return -1, "", err
	}
	var errno syscall.Errno
	if err = rc.Control(func(lfd uintptr) {
		var r uintptr
		r, _, errno = syscall.Syscall(syscall.SYS_FCNTL, lfd, syscall.F_DUPFD_CLOEXEC, 0)
		fd = int(r)
	}); err == nil && errno != 0 {
		err = errno
	}
	if err != nil {
		return -1, "", err
	}
	return fd, ln.Addr().String(), nil
}

// writeSome writes as much of p as the socket takes without blocking and
// returns how much that was. A full socket buffer is (0, nil), and so is
// an interrupted call (Go's asynchronous preemption signals threads).
func writeSome(fd int, p []byte) (int, error) {
	n, err := syscall.Write(fd, p)
	if err == syscall.EAGAIN || err == syscall.EINTR {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	return n, nil
}
