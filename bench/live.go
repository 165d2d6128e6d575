package main

// The path that ships: server.New on a loopback port, a resident
// population of real sockets, and a few closed-loop workers, each
// sending one verified transaction at a time on a seeded-random one of
// the sockets it owns. The same client against echoServer measures what
// the kernel and Go's netpoller cost with no demultiplexer behind them.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"tcpdemux/internal/rng"
	"tcpdemux/internal/server"
)

// ioTimeout bounds a dial, a shutdown, and the life of every client
// socket (no pass lasts that long), so that a hung server fails the run
// instead of hanging it.
const ioTimeout = 90 * time.Second

type liveWorker struct {
	conns []net.Conn
	terms []terminal
	src   *rng.Source
	tr    *tracer // nil on every worker but the first

	req, want, line []byte
	buf             [512]byte
	lat             slicer
	txns            uint64
	attempted       int
	failed          int
	err             error
}

func (w *liveWorker) fail(err error) {
	w.failed++
	if w.err == nil {
		w.err = err
	}
}

// roundTrip sends one transaction on the worker's i-th socket and reads
// the reply line. Against the echo server the expected reply is the
// request itself.
func (w *liveWorker) roundTrip(i int, echo bool) {
	w.attempted++
	root := w.tr.startTxn()
	id := w.tr.begin(spanSynth, false)
	k, delta := w.src.Intn(accountsPer), int64(w.src.Intn(1999)-999)
	w.req, w.want = w.terms[i].next(w.req[:0], w.want[:0], k, delta)
	want := w.want
	if echo {
		want = w.req
	}
	w.tr.end(id)

	c := w.conns[i]
	id = w.tr.begin(spanRoundTrip, false)
	t0 := time.Now()
	_, err := c.Write(w.req)
	w.line = w.line[:0]
	for err == nil && (len(w.line) == 0 || w.line[len(w.line)-1] != '\n') {
		var n int
		n, err = c.Read(w.buf[:])
		w.line = append(w.line, w.buf[:n]...)
	}
	t1 := time.Now()
	w.lat.add(t1.Sub(t0), t1)
	w.tr.end(id)

	id = w.tr.begin(spanVerify, false)
	switch {
	case err != nil:
		w.fail(fmt.Errorf("socket %d: %w", i, err))
	case !bytes.Equal(w.line, want):
		w.fail(fmt.Errorf("socket %d: got %q want %q", i, w.line, want))
	}
	w.tr.end(id)
	w.tr.endTxn(root)
	w.txns++
}

// run sends transactions on seeded-random sockets until dur has passed
// or, when maxTxns is positive, until exactly that many are done.
func (w *liveWorker) run(dur time.Duration, maxTxns int, echo bool) {
	w.txns = 0
	start := time.Now()
	w.lat.reset(start)
	for w.err == nil {
		w.roundTrip(w.src.Intn(len(w.conns)), echo)
		if (maxTxns == 0 && time.Since(start) >= dur) || (maxTxns > 0 && int(w.txns) >= maxTxns) {
			return
		}
	}
}

// live is one server (or echo server) with its resident sockets.
type live struct {
	srv     *server.Server
	echo    *echoServer
	workers []*liveWorker
	// goroutinesPerConn is how many goroutines the set-up started per
	// resident socket.
	goroutinesPerConn float64
}

// newLive starts the frontend and opens the resident population, each
// socket proving itself with one verified transaction: everything
// setup_s covers.
func newLive(sp spec, resident int, echo bool, seed uint64, tr *tracer) (*live, error) {
	l := &live{}
	goroutines := runtime.NumGoroutine()
	var addr string
	if echo {
		var err error
		if l.echo, err = newEchoServer(); err != nil {
			return nil, err
		}
		addr = l.echo.ln.Addr().String()
	} else {
		sel, err := sp.selection()
		if err != nil {
			return nil, err
		}
		l.srv, err = server.New(server.Config{Addr: "127.0.0.1:0", Discipline: sel, Shards: sp.shards, Seed: seed})
		if err != nil {
			return nil, err
		}
		addr = l.srv.Addr()
	}
	n := liveWorkers()
	l.workers = make([]*liveWorker, n)
	var wg sync.WaitGroup
	for i := range l.workers {
		w := &liveWorker{src: rng.New(seed + uint64(i+1)*0x9e3779b97f4a7c15)}
		if i == 0 {
			w.tr = tr
		}
		l.workers[i] = w
		// Worker i owns slots i, i+n, i+2n, ...: its terminals' ids are
		// private to it whatever the worker count.
		wg.Add(1)
		go func(first int) {
			defer wg.Done()
			for slot := first; slot < resident && w.err == nil; slot += n {
				c, err := net.DialTimeout("tcp", addr, ioTimeout)
				if err != nil {
					w.fail(fmt.Errorf("dial: %w", err))
					return
				}
				// One deadline for the socket's whole life: re-arming it
				// per transaction would put timer work on the timed path.
				_ = c.SetDeadline(time.Now().Add(ioTimeout))
				w.conns = append(w.conns, c)
				w.terms = append(w.terms, newTerminal(slot))
				w.roundTrip(len(w.conns)-1, echo)
			}
		}(i)
	}
	wg.Wait()
	l.goroutinesPerConn = float64(runtime.NumGoroutine()-goroutines) / float64(resident)
	for _, w := range l.workers {
		if w.err != nil {
			return l, w.err
		}
	}
	return l, nil
}

// run is one measured window on every worker at once.
func (l *live) run(dur time.Duration, maxTxns int) window {
	u0 := readUsage()
	var synth0 uint64
	if l.srv != nil {
		synth0 = l.framesSynthesized()
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, w := range l.workers {
		wg.Add(1)
		go func(w *liveWorker) {
			defer wg.Done()
			w.run(dur, maxTxns, l.echo != nil)
		}(w)
	}
	wg.Wait()
	win := window{seconds: time.Since(start).Seconds()}
	for _, w := range l.workers {
		win.txns += w.txns
		win.slices = append(win.slices, w.lat.slices(win.seconds)...)
		win.lat = append(win.lat, w.lat.lat...)
	}
	win.usage = readUsage().sub(u0)
	if l.srv != nil {
		win.inbound = l.framesSynthesized() - synth0
	}
	return win
}

// framesSynthesized reads the server's count of frames it synthesized
// into the engine, once it has stopped moving: the server acknowledges a
// reply to the engine after queueing it for the socket, so the client
// can hold the reply a moment before the count includes that ACK.
func (l *live) framesSynthesized() uint64 {
	read := func() uint64 {
		for _, c := range l.srv.Registry().Snapshot().Counters {
			if c.Name == "server_frames_synthesized_total" {
				return c.Value
			}
		}
		return 0
	}
	last := read()
	for i := 0; i < 100; i++ {
		time.Sleep(2 * time.Millisecond)
		now := read()
		if now == last {
			break
		}
		last = now
	}
	return last
}

// tally sums the workers' attempts and failures, and returns the first
// error any of them met.
func (l *live) tally() (attempted, failed int, err error) {
	for _, w := range l.workers {
		attempted += w.attempted
		failed += w.failed
		if err == nil {
			err = w.err
		}
	}
	return attempted, failed, err
}

// finish shuts the frontend down with the clients still connected (a
// graceful drain), checks its conservation ledger, and closes the client
// sockets. It returns the count metrics the server's own counters give.
func (l *live) finish() (map[string]float64, error) {
	counts := map[string]float64{}
	var err error
	if l.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), ioTimeout)
		err = l.srv.Shutdown(ctx)
		cancel()
		st := l.srv.Stats()
		balanced := st.Active == 0 && st.Accepted == st.Served+st.Shed+st.Drained
		acc := l.srv.StackSet().Accounting()
		counts["server.ledger_balanced"] = b2f(balanced)
		counts["server.shed_conns"] = float64(st.Shed)
		counts["shard.ledger_balanced"] = b2f(acc.Balanced())
		counts["shard.shed_frames"] = float64(acc.Shed)
		counts["shard.inbox_full_events"] = float64(l.srv.StackSet().InboxFullEvents)
		retransmits, _, _, _ := l.srv.StackSet().LifecycleCounters()
		counts["engine.retransmits"] = float64(retransmits)
		switch {
		case err != nil:
			err = fmt.Errorf("Shutdown: %w", err)
		case !balanced || st.Shed != 0:
			err = fmt.Errorf("server ledger: %+v", st)
		case !acc.Balanced() || acc.Shed != 0:
			err = fmt.Errorf("shard ledger: %+v", acc)
		case retransmits != 0:
			err = fmt.Errorf("engine retransmitted %d segment(s)", retransmits)
		}
	}
	for _, w := range l.workers {
		for _, c := range w.conns {
			c.Close()
		}
	}
	if l.echo != nil {
		l.echo.close()
	}
	return counts, err
}

// echoServer is the least a line server can do with Go's net package:
// one goroutine per connection that writes back what it reads.
type echoServer struct {
	ln    net.Listener
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns []net.Conn
}

func newEchoServer() (*echoServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &echoServer{ln: ln}
	e.wg.Add(1)
	go e.accept()
	return e, nil
}

func (e *echoServer) accept() {
	defer e.wg.Done()
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		e.conns = append(e.conns, c)
		e.mu.Unlock()
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			var buf [512]byte
			for {
				n, err := c.Read(buf[:])
				if n > 0 {
					if _, werr := c.Write(buf[:n]); werr != nil {
						return
					}
				}
				if err != nil {
					return
				}
			}
		}()
	}
}

// close stops the listener and every connection, and waits for their
// goroutines.
func (e *echoServer) close() {
	e.ln.Close()
	e.mu.Lock()
	for _, c := range e.conns {
		c.Close()
	}
	e.mu.Unlock()
	e.wg.Wait()
}
