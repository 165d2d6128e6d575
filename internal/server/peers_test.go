//go:build linux

package server

import (
	"bytes"
	"context"
	"net"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"tcpdemux/internal/core"
	"tcpdemux/internal/discipline"
	"tcpdemux/internal/engine"
	"tcpdemux/internal/wire"
)

// Hostile and merely clumsy peers, and the shape of the process around
// them. Every case ends with the connection in exactly one bucket of the
// conservation ledger (assertConservation, after Shutdown) and the reason
// the case is about.

// shedCount reads one server_shed_total{reason} counter.
func shedCount(srv *Server, reason string) uint64 {
	for _, c := range srv.Registry().Snapshot().Counters {
		if c.Name == "server_shed_total" && len(c.Labels) == 1 && c.Labels[0].Value == reason {
			return c.Value
		}
	}
	return 0
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// shutdown stops srv and returns its balanced ledger.
func shutdown(t *testing.T, srv *Server) Stats {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	return assertConservation(t, srv)
}

// terminalClient is one verified TPC/A client with ids of its own.
type terminalClient struct {
	conn   net.Conn
	rd     *lineReader
	oracle *Ledger
	id     uint32
}

func dialTerminal(t *testing.T, srv *Server, id uint32) *terminalClient {
	t.Helper()
	conn, err := dialRetry(srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	return &terminalClient{conn: conn, rd: newLineReader(conn), oracle: NewLedger(), id: id}
}

// request returns the next request line and the reply the server owes it.
func (c *terminalClient) request(delta int64) (req, want []byte) {
	return FormatRequest(c.id, c.id, c.id, delta),
		c.oracle.Expected(Req{Branch: c.id, Teller: c.id, Account: c.id, Delta: delta})
}

// expect reads one reply line and compares it.
func (c *terminalClient) expect(t *testing.T, want []byte) {
	t.Helper()
	line, err := c.rd.readLine(nil)
	if err != nil || !bytes.Equal(line, want) {
		t.Fatalf("reply: got %q, %v; want %q", line, err, want)
	}
}

// TestLiveNeverReadingClient: a client that sends requests and never
// reads a reply fills the kernel's buffers and then the session's; it is
// shed once, as write-backlog, and the loop, which never blocked on it,
// keeps serving another client the whole time.
func TestLiveNeverReadingClient(t *testing.T) {
	srv := newTestServer(t, 2)
	good := dialTerminal(t, srv, 1)
	defer good.conn.Close()
	var served atomic.Int64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for n := int64(0); ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			req, want := good.request(n)
			if _, err := good.conn.Write(req); err != nil {
				t.Errorf("bystander txn %d: %v", n, err)
				return
			}
			if line, err := good.rd.readLine(nil); err != nil || !bytes.Equal(line, want) {
				t.Errorf("bystander txn %d: got %q, %v; want %q", n, line, err, want)
				return
			}
			served.Add(1)
		}
	}()

	mute, err := dialRetry(srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer mute.Close()
	mute.SetDeadline(time.Now().Add(60 * time.Second))
	batch := bytes.Repeat(FormatRequest(2, 2, 2, 1), 2048)
	before := served.Load()
	for sent := 0; shedCount(srv, "write-backlog") == 0; {
		n, err := mute.Write(batch)
		if sent += n; err != nil {
			break // the shed closed the socket under us
		}
		if sent > 1<<30 {
			t.Fatal("a gigabyte of requests unanswered to and still not shed")
		}
	}
	waitFor(t, "the write-backlog shed", func() bool { return shedCount(srv, "write-backlog") == 1 })
	if served.Load() == before {
		t.Error("the bystander was not served while the mute client was being fed")
	}
	close(stop)
	<-done
	good.conn.Close()
	if st := shutdown(t, srv); st.Shed != 1 {
		t.Errorf("ledger: %+v, want exactly the one shed", st)
	}
}

// TestLiveResetMidTransaction: a request followed by a reset instead of a
// read of the reply is one socket-error shed, whether the loop meets the
// reset on its read or on the write of the reply.
func TestLiveResetMidTransaction(t *testing.T) {
	srv := newTestServer(t, 2)
	c := dialTerminal(t, srv, 1)
	req, _ := c.request(5)
	if _, err := c.conn.Write(req); err != nil {
		t.Fatalf("write: %v", err)
	}
	c.conn.(*net.TCPConn).SetLinger(0) // close sends RST, not FIN
	c.conn.Close()
	waitFor(t, "the socket-error shed", func() bool { return shedCount(srv, "socket-error") == 1 })
	if st := shutdown(t, srv); st.Shed != 1 || st.Accepted != 1 {
		t.Errorf("ledger: %+v, want one accept, one shed", st)
	}
}

// TestLiveHalfClose: a client that shuts its sending side right after the
// request still gets the reply, then end of stream, and counts as served.
func TestLiveHalfClose(t *testing.T) {
	srv := newTestServer(t, 2)
	c := dialTerminal(t, srv, 1)
	defer c.conn.Close()
	req, want := c.request(-7)
	if _, err := c.conn.Write(req); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := c.conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatalf("CloseWrite: %v", err)
	}
	c.expect(t, want)
	if n, err := c.conn.Read(make([]byte, 1)); n != 0 || err == nil {
		t.Errorf("after the reply: read %d byte(s), err %v; want end of stream", n, err)
	}
	waitFor(t, "the session to be served", func() bool { return srv.Stats().Served == 1 })
	if st := shutdown(t, srv); st.Served != 1 || st.Txns != 1 {
		t.Errorf("ledger: %+v, want one served connection, one transaction", st)
	}
}

// TestLiveDribbleAndPipeline: requests that arrive one byte per segment
// are put together across reads, and fifty requests that arrive in one
// segment are answered in order.
func TestLiveDribbleAndPipeline(t *testing.T) {
	srv := newTestServer(t, 2)
	c := dialTerminal(t, srv, 1)
	for i := 0; i < 3; i++ {
		req, want := c.request(int64(100 + i))
		for _, b := range req {
			if _, err := c.conn.Write([]byte{b}); err != nil {
				t.Fatalf("write: %v", err)
			}
			time.Sleep(200 * time.Microsecond) // let the loop read this byte alone
		}
		c.expect(t, want)
	}
	var burst []byte
	var wants [][]byte
	for i := 0; i < 50; i++ {
		req, want := c.request(int64(i) - 25)
		burst, wants = append(burst, req...), append(wants, want)
	}
	if _, err := c.conn.Write(burst); err != nil {
		t.Fatalf("write: %v", err)
	}
	for _, want := range wants {
		c.expect(t, want)
	}
	c.conn.Close()
	waitFor(t, "the session to be served", func() bool { return srv.Stats().Served == 1 })
	if st := shutdown(t, srv); st.Served != 1 || st.Txns != 53 {
		t.Errorf("ledger: %+v, want one served connection, 53 transactions", st)
	}
}

// newLooplessServer is a server whose loop is the test: the test goroutine
// owns everything loop-owned and drives dispatch by hand.
func newLooplessServer(t *testing.T) *Server {
	t.Helper()
	sel, err := discipline.Select("sequent", "multiplicative", 512)
	if err != nil {
		t.Fatalf("discipline.Select: %v", err)
	}
	s, err := newServer(Config{Addr: "127.0.0.1:0", Discipline: sel, Seed: 42})
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	return s
}

// onlySession returns the one session s holds.
//
//demux:owner(engineloop)
func onlySession(t *testing.T, s *Server) *session {
	t.Helper()
	var only *session
	for _, sess := range s.conns {
		if sess != nil {
			if only != nil {
				t.Fatalf("%d sessions, want 1", s.active)
			}
			only = sess
		}
	}
	if only == nil {
		t.Fatal("no session, want 1")
	}
	return only
}

// step is one pass of the loop without the parking: wait for ready
// descriptors, dispatch each.
func step(t *testing.T, s *Server) {
	t.Helper()
	var events [maxEvents]syscall.EpollEvent
	n, err := syscall.EpollWait(s.epfd, events[:], 5000)
	for err == syscall.EINTR {
		n, err = syscall.EpollWait(s.epfd, events[:], 5000)
	}
	if err != nil || n == 0 {
		t.Fatalf("epoll_wait: %d ready, %v", n, err)
	}
	for _, ev := range events[:n] {
		s.dispatch(ev)
	}
}

// TestLiveReacceptInsideOneBatch: a socket reaches end of stream and is
// closed, and the next accept, in the same batch of events, is handed the
// same descriptor number. Events still queued in that batch for the old
// holder, whatever they claim, must not touch the new one; nor may an
// egress frame or a handler call for the old holder's synthetic
// connection, although its key names the same descriptor slot.
//
//demux:owner(engineloop)
func TestLiveReacceptInsideOneBatch(t *testing.T) {
	s := newLooplessServer(t)
	first := dialTerminal(t, s, 1)
	step(t, s) // accept
	old := onlySession(t, s)
	first.conn.Close()
	second := dialTerminal(t, s, 2)
	defer second.conn.Close()

	// The batch epoll_wait could have returned: end of stream on the old
	// socket, the listener ready, and three more events carrying the old
	// registration's tag.
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(old.fd), Pad: old.gen}
	waitFor(t, "end of stream on the first socket", func() bool {
		s.dispatch(ev)
		return s.m.Served.Value() == 1
	})
	waitFor(t, "the second dial to reach the accept queue", func() bool {
		s.dispatch(syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(s.lfd)})
		return s.active == 1
	})
	for _, events := range []uint32{syscall.EPOLLIN | syscall.EPOLLHUP | syscall.EPOLLERR, syscall.EPOLLOUT, syscall.EPOLLIN} {
		ev.Events = events
		s.dispatch(ev)
	}
	if got := s.m.Served.Value(); got != 1 {
		t.Fatalf("served %d sessions, want the first, once", got)
	}
	fresh := s.conns[old.fd]
	if fresh == nil || fresh == old || fresh.state != sessEstablished {
		t.Fatalf("descriptor %d: session %+v, want the second connection, established", old.fd, fresh)
	}

	// A late egress segment for the old connection: in sequence for the
	// new one, with data and a FIN.
	sndNxt, rcvNxt, txns, bad := fresh.sndNxt, fresh.rcvNxt, s.m.Txns.Value(), s.m.BadTxns.Value()
	stale, err := wire.BuildSegment(
		wire.IPv4Header{TTL: 64, Src: old.key.LocalAddr, Dst: old.key.RemoteAddr},
		wire.TCPHeader{SrcPort: old.key.LocalPort, DstPort: old.key.RemotePort, Seq: rcvNxt, Ack: sndNxt,
			Flags: wire.FlagACK | wire.FlagPSH | wire.FlagFIN, Window: 65535},
		[]byte("OK stale\n"))
	if err != nil {
		t.Fatal(err)
	}
	s.routeFrame(stale)
	// A late handler call: an engine connection keyed as the old one was,
	// on a stack of its own whose handler is the server's, carrying a
	// request line.
	eng := engine.NewStack(old.key.LocalAddr, core.NewMapDemux(), 1)
	if err := eng.Listen(ServicePort, s.handleApp); err != nil {
		t.Fatal(err)
	}
	peer := engine.NewStack(old.key.RemoteAddr, core.NewMapDemux(), 2)
	pc, err := peer.Connect(old.key.LocalAddr, ServicePort, old.key.RemotePort, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Pump(peer, eng); err != nil {
		t.Fatal(err)
	}
	accounts := len(s.ledger.accounts)
	if err := pc.Send(FormatRequest(7, 7, 7, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Pump(peer, eng); err != nil {
		t.Fatal(err)
	}
	if fresh.sndNxt != sndNxt || fresh.rcvNxt != rcvNxt || fresh.state != sessEstablished || s.conns[old.fd] != fresh {
		t.Fatalf("frames for the old holder moved the new session: snd %d → %d, rcv %d → %d, state %d",
			sndNxt, fresh.sndNxt, rcvNxt, fresh.rcvNxt, fresh.state)
	}
	if s.m.Txns.Value() != txns || s.m.BadTxns.Value() != bad || len(s.ledger.accounts) != accounts || s.m.Served.Value() != 1 {
		t.Fatalf("a handler call for the old holder reached the ledger: txns %d → %d, bad %d → %d, accounts %d → %d",
			txns, s.m.Txns.Value(), bad, s.m.BadTxns.Value(), accounts, len(s.ledger.accounts))
	}

	// The new holder of the number transacts as if nothing had happened.
	req, want := second.request(9)
	if _, err := second.conn.Write(req); err != nil {
		t.Fatalf("write: %v", err)
	}
	step(t, s)
	second.expect(t, want)
	s.drainAndExit()
	if st := assertConservation(t, s); st.Served != 1 || st.Drained != 1 || st.Shed != 0 {
		t.Errorf("ledger: %+v, want one served, one drained", st)
	}
}

// TestLiveCloseWaitsForFlush: a client that ends its stream while the
// session still holds replies its socket buffer had refused gets them
// before the close, and still counts as served.
//
//demux:owner(engineloop)
func TestLiveCloseWaitsForFlush(t *testing.T) {
	s := newLooplessServer(t)
	c := dialTerminal(t, s, 1)
	defer c.conn.Close()
	step(t, s) // accept
	sess := onlySession(t, s)
	// As send leaves a session whose socket buffer was full.
	held := []byte("OK held back\n")
	sess.buffers().wbuf = append(sess.buffers().wbuf, held...)
	s.interest(sess, sess.events|syscall.EPOLLOUT)
	if err := c.conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatalf("CloseWrite: %v", err)
	}
	waitFor(t, "end of stream to be read", func() bool {
		s.dispatch(syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(sess.fd), Pad: sess.gen})
		return sess.eof
	})
	if sess.state != sessEstablished {
		t.Fatalf("state %d with %d bytes unsent: the close did not wait", sess.state, sess.pending())
	}
	step(t, s) // room in the socket buffer
	c.expect(t, held)
	if n, err := c.conn.Read(make([]byte, 1)); n != 0 || err == nil {
		t.Errorf("after the held reply: read %d byte(s), err %v; want end of stream", n, err)
	}
	s.drainAndExit()
	if st := assertConservation(t, s); st.Served != 1 || st.Drained != 0 {
		t.Errorf("ledger: %+v, want the one connection served", st)
	}
}

// TestLiveTransactionAllocations pins what one transaction on a resident
// session allocates from socket in to socket out: the request frame, the
// reply line, the engine's egress frame and the acknowledgement frame.
// A request split across two segments adds the second request frame and
// the engine's bare acknowledgement of the first; the session's line
// buffer is reused, not regrown.
//
//demux:owner(engineloop)
func TestLiveTransactionAllocations(t *testing.T) {
	s := newLooplessServer(t)
	defer s.drainAndExit()
	c := dialTerminal(t, s, 1)
	defer c.conn.Close()
	step(t, s) // accept
	req := FormatRequest(1, 1, 1, 3)
	reply := make([]byte, 256)
	roundTrip := func(parts ...[]byte) {
		for _, p := range parts {
			if _, err := c.conn.Write(p); err != nil {
				t.Fatalf("write: %v", err)
			}
			step(t, s)
		}
		if n, err := c.conn.Read(reply); err != nil || reply[n-1] != '\n' {
			t.Fatalf("reply %q, %v", reply[:n], err)
		}
	}
	if got := testing.AllocsPerRun(200, func() { roundTrip(req) }); got > 4 {
		t.Errorf("a transaction allocates %.1f times, want at most 4", got)
	}
	if got := testing.AllocsPerRun(200, func() { roundTrip(req[:5], req[5:]) }); got > 6 {
		t.Errorf("a transaction split over two segments allocates %.1f times, want at most 6", got)
	}
	if got := cap(onlySession(t, s).buffers().appBuf); got > MaxLineLen {
		t.Errorf("the line buffer grew to %d bytes over 400 short lines", got)
	}
}

// TestLiveIdleResidents: a thousand resident sockets cost no goroutines,
// and a server with nothing to do parks instead of spinning: ticking the
// engine two hundred times a second is all the CPU it uses.
func TestLiveIdleResidents(t *testing.T) {
	const resident = 1000
	srv := newTestServer(t, 4)
	goroutines := runtime.NumGoroutine()
	conns := make([]net.Conn, resident)
	for i := range conns {
		c, err := dialRetry(srv.Addr(), 5*time.Second)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		defer c.Close()
		conns[i] = c
	}
	waitFor(t, "every socket to be accepted", func() bool { return srv.Stats().Accepted == resident })
	if per := float64(runtime.NumGoroutine()-goroutines) / resident; per >= 0.05 {
		t.Errorf("%.3f goroutines per resident socket, want < 0.05", per)
	}

	// The collector is the one other thing that could run in the window.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cpu := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			t.Fatalf("getrusage: %v", err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	before := cpu()
	time.Sleep(500 * time.Millisecond)
	burned := cpu() - before
	t.Logf("idle: %v of CPU in 500 ms", burned)
	if burned >= 5*time.Millisecond {
		t.Errorf("an idle server with %d sockets used %v of CPU in 500 ms, want < 5 ms", resident, burned)
	}
	if st := shutdown(t, srv); st.Drained != resident {
		t.Errorf("ledger: %+v, want %d drained", st, resident)
	}
}

// TestFrontendBytesPerConnection holds what a resident connection costs
// the server's heap: a thousand raw client sockets, which put nothing on
// the Go heap themselves, each accepted and given one transaction, and
// the live heap's growth over them. It counts the 48-B session, the
// session's slot in the descriptor-indexed conns slice (the clients'
// descriptors interleave with the server's, so two slots a resident), and
// the engine's share (the 64-B Conn and its chain entry). That reads
// 156.4 B; with the 112-B session and the key→session map the frontend
// kept beside conns it read 275–281 B.
//
//demux:owner(engineloop)
func TestFrontendBytesPerConnection(t *testing.T) {
	const resident = 1000
	if size := unsafe.Sizeof(session{}); size > 48 {
		t.Errorf("session is %d B, want <= 48", size)
	}
	s := newLooplessServer(t)
	defer s.drainAndExit()
	host, port, err := net.SplitHostPort(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	sa := &syscall.SockaddrInet4{Addr: [4]byte(net.ParseIP(host).To4())}
	if sa.Port, err = strconv.Atoi(port); err != nil {
		t.Fatal(err)
	}
	fds := make([]int, 0, resident)
	defer func() {
		for _, fd := range fds {
			syscall.Close(fd)
		}
	}()
	req, reply := FormatRequest(1, 1, 1, 1), make([]byte, 256)

	before := heapAlloc()
	for i := 0; i < resident; i++ {
		fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
		if err != nil {
			t.Fatalf("socket %d: %v", i, err)
		}
		fds = append(fds, fd)
		if err := syscall.Connect(fd, sa); err != nil {
			t.Fatalf("connect %d: %v", i, err)
		}
		if n, err := syscall.Write(fd, req); n != len(req) || err != nil {
			t.Fatalf("write %d: %d, %v", i, n, err)
		}
		for s.m.Txns.Value() <= uint64(i) {
			step(t, s)
		}
		if n, err := syscall.Read(fd, reply); n < 1 || err != nil || reply[n-1] != '\n' {
			t.Fatalf("reply %d: %q, %v", i, reply[:max(n, 0)], err)
		}
	}
	perConn := float64(heapAlloc()-before) / resident
	t.Logf("%.1f B per resident connection", perConn)
	if s.active != resident {
		t.Fatalf("%d sessions open, want %d", s.active, resident)
	}
	if perConn > 164 {
		t.Errorf("the server holds %.1f B per resident connection, want <= 164", perConn)
	}
}

// heapAlloc is the live heap after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
