// Netpipe: the engine stacks talking over a real network socket.
//
// The other examples shuttle frames between stacks in memory. Here the
// IPv4/TCP frames produced by the engine are carried as UDP datagrams over
// the loopback interface — a userspace TCP running over an OS socket, the
// way userspace stacks attach to TAP devices. Each stack has a receive
// pump and a transmit pump, and main sends and polls on the client's
// connections beside them. An engine.Stack has a single owner and locks
// nothing, so an endpoint here carries the mutex that makes its three
// goroutines take turns: every call into the stack or one of its
// connections goes through endpoint.do.
//
// The demultiplexer under study sits on the server side; the example
// reports its lookup statistics after a burst of request/response traffic
// from a set of concurrent client connections.
//
// Run with: go run ./examples/netpipe [-conns 50] [-requests 20]
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"tcpdemux/internal/core"
	"tcpdemux/internal/engine"
	"tcpdemux/internal/wire"
)

// endpoint pumps one stack's frames over a UDP socket.
type endpoint struct {
	mu    sync.Mutex // held around every use of stack and its Conns
	stack *engine.Stack
	conn  *net.UDPConn
	peer  *net.UDPAddr
	done  chan struct{}
	wg    sync.WaitGroup
}

// newEndpoint binds a loopback UDP socket for the stack.
func newEndpoint(stack *engine.Stack) (*endpoint, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	return &endpoint{stack: stack, conn: conn, done: make(chan struct{})}, nil
}

// do runs f with the endpoint's stack to itself.
func (e *endpoint) do(f func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	f()
}

// start launches the receive and transmit pumps.
func (e *endpoint) start() {
	e.wg.Add(2)
	go func() { // receive: socket -> stack
		defer e.wg.Done()
		buf := make([]byte, 65536)
		for {
			if err := e.conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
				return
			}
			n, _, err := e.conn.ReadFromUDP(buf)
			if err != nil {
				select {
				case <-e.done:
					return
				default:
					continue // deadline tick; keep listening
				}
			}
			frame := make([]byte, n)
			copy(frame, buf[:n])
			// Errors here mean a damaged datagram; the stack already
			// dropped it, nothing to do on a best-effort wire.
			e.do(func() { _, _ = e.stack.Deliver(frame) })
		}
	}()
	go func() { // transmit: stack outbox -> socket
		defer e.wg.Done()
		ticker := time.NewTicker(200 * time.Microsecond)
		defer ticker.Stop()
		idle := 0
		for {
			select {
			case <-e.done:
				return
			case <-ticker.C:
				var frames [][]byte
				e.do(func() { frames = e.stack.Drain() })
				if len(frames) == 0 {
					// UDP may drop under pressure; after ~20 ms of quiet,
					// requeue anything still unacknowledged.
					if idle++; idle >= 100 {
						idle = 0
						e.do(func() { e.stack.Retransmit() })
					}
					continue
				}
				idle = 0
				for _, frame := range frames {
					if _, err := e.conn.WriteToUDP(frame, e.peer); err != nil {
						return
					}
				}
			}
		}
	}()
}

// stop shuts the pumps down.
func (e *endpoint) stop() {
	close(e.done)
	e.wg.Wait()
	e.conn.Close()
}

func main() {
	conns := flag.Int("conns", 50, "concurrent client connections")
	requests := flag.Int("requests", 20, "requests per connection")
	flag.Parse()

	serverDemux := core.NewSequentHash(19, nil)
	serverStack := engine.NewStack(wire.MakeAddr(10, 0, 0, 1), serverDemux, 1)
	clientStack := engine.NewStack(wire.MakeAddr(10, 0, 0, 2), core.NewMapDemux(), 2)

	if err := serverStack.Listen(1521, func(_ *engine.Conn, q []byte) []byte {
		return append([]byte("echo:"), q...)
	}); err != nil {
		log.Fatal(err)
	}

	server, err := newEndpoint(serverStack)
	if err != nil {
		log.Fatal(err)
	}
	client, err := newEndpoint(clientStack)
	if err != nil {
		log.Fatal(err)
	}
	server.peer = client.conn.LocalAddr().(*net.UDPAddr)
	client.peer = server.conn.LocalAddr().(*net.UDPAddr)
	server.start()
	client.start()
	defer server.stop()
	defer client.stop()

	fmt.Printf("UDP wire: server %v <-> client %v\n", server.conn.LocalAddr(), client.conn.LocalAddr())

	// Open all connections, then wait for the handshakes to complete.
	open := make([]*engine.Conn, *conns)
	for i := range open {
		var err error
		client.do(func() {
			open[i], err = clientStack.Connect(wire.MakeAddr(10, 0, 0, 1), 1521, uint16(30000+i), nil)
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	if err := waitFor(5*time.Second, func() (ok bool) {
		client.do(func() {
			ok = true
			for _, c := range open {
				ok = ok && c.State() == core.StateEstablished
			}
		})
		return ok
	}); err != nil {
		log.Fatalf("handshakes: %v", err)
	}
	fmt.Printf("%d connections established over the loopback wire\n", *conns)

	// Request/response bursts: round-robin over connections.
	start := time.Now()
	for r := 0; r < *requests; r++ {
		for i, c := range open {
			msg := fmt.Sprintf("req-%d-%d", i, r)
			var err error
			client.do(func() { err = c.Send([]byte(msg)) })
			if err != nil {
				log.Fatal(err)
			}
			want := "echo:" + msg
			if err := waitFor(5*time.Second, func() (ok bool) {
				client.do(func() { ok = string(c.Receive()) == want })
				return ok
			}); err != nil {
				log.Fatalf("conn %d req %d: %v", i, r, err)
			}
		}
	}
	elapsed := time.Since(start)

	total := *conns * *requests
	fmt.Printf("%d request/response round trips in %v (%.0f/s)\n",
		total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds())
	server.do(func() { fmt.Printf("server demux: %v\n", serverDemux.Stats()) })
}

// waitFor polls cond until it holds or the timeout expires.
func waitFor(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(500 * time.Microsecond)
	}
	return fmt.Errorf("timed out after %v", timeout)
}
