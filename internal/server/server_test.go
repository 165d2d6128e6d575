//go:build linux

package server

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"tcpdemux/internal/discipline"
	"tcpdemux/internal/telemetry"
)

func newTestServer(t *testing.T, shards int) *Server {
	t.Helper()
	sel, err := discipline.Select("flat-hopscotch", "multiplicative", 256)
	if err != nil {
		t.Fatalf("discipline.Select: %v", err)
	}
	srv, err := New(Config{
		Addr:       "127.0.0.1:0",
		Discipline: sel,
		Shards:     shards,
		Seed:       42,
	})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	return srv
}

// assertConservation checks the connection ledger of a stopped server
// where it is kept — the server_* counters on the registry must balance,
// accepted == served + Σ shed{reason} + drained — and that Stats is that
// same ledger field for field, with nothing left active. It returns the
// Stats view for the caller's own assertions.
func assertConservation(t *testing.T, srv *Server) Stats {
	t.Helper()
	var reg Stats
	for _, c := range srv.Registry().Snapshot().Counters {
		switch c.Name {
		case "server_accepted_total":
			reg.Accepted = c.Value
		case "server_served_total":
			reg.Served = c.Value
		case "server_shed_total":
			reg.Shed += c.Value
		case "server_drained_total":
			reg.Drained = c.Value
		case "server_txns_total":
			reg.Txns = c.Value
		}
	}
	if reg.Accepted != reg.Served+reg.Shed+reg.Drained {
		t.Errorf("conservation ledger unbalanced: accepted=%d served=%d shed=%d drained=%d",
			reg.Accepted, reg.Served, reg.Shed, reg.Drained)
	}
	st := srv.Stats()
	if st != reg {
		t.Errorf("Stats() = %+v, registry = %+v (Active must be 0 after shutdown)", st, reg)
	}
	return st
}

// openFDs counts the process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatalf("/proc/self/fd: %v", err)
	}
	return len(ents)
}

// TestLiveLoopback is the headline integration test: ≥1000 concurrent
// real TCP connections through the kernel loopback, every byte bridged
// through RSS steering + flat-hopscotch per-shard tables + the engine
// state machine, every TPC/A response verified byte-for-byte, with a
// mid-schedule close/reopen mixed in per worker.
func TestLiveLoopback(t *testing.T) {
	const conns = 1000
	const txnsPer = 4
	const reopens = 1

	srv := newTestServer(t, 4)
	rep, err := RunLoad(LoadConfig{
		Addr:        srv.Addr(),
		Conns:       conns,
		TxnsPerConn: txnsPer,
		Reopens:     reopens,
		Seed:        7,
		Barrier:     true, // all 1000 connections provably concurrent
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if rep.Failures != 0 {
		t.Fatalf("%d verification failures (first: %s)", rep.Failures, rep.FirstError)
	}
	if rep.Txns != conns*txnsPer {
		t.Errorf("txns: got %d want %d", rep.Txns, conns*txnsPer)
	}
	if want := conns * (reopens + 1); rep.Opens != want {
		t.Errorf("opens: got %d want %d", rep.Opens, want)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	st := assertConservation(t, srv)
	if st.Accepted != uint64(rep.Opens) {
		t.Errorf("accepted: got %d want %d (every dial was accepted)", st.Accepted, rep.Opens)
	}
	if st.Txns != uint64(rep.Txns) {
		t.Errorf("server txns: got %d want %d", st.Txns, rep.Txns)
	}
	if st.Shed != 0 {
		t.Errorf("clean run shed %d connections", st.Shed)
	}
	// Every frame the shard layer saw is attributed in its own ledger too.
	acc := srv.StackSet().Accounting()
	if !acc.Balanced() {
		t.Errorf("shard conservation ledger unbalanced: %+v", acc)
	}
}

// TestLiveGracefulShutdown interrupts a run mid-flight: in-flight
// transactions flush, the remaining sessions drain through the engine's
// FIN handshake as shutdown-drained, the conservation ledger balances,
// and no goroutine or descriptor outlives Shutdown.
func TestLiveGracefulShutdown(t *testing.T) {
	// The runtime opens its own poller descriptors at the first use of a
	// socket; have that behind us before counting.
	if ln, err := net.Listen("tcp", "127.0.0.1:0"); err == nil {
		ln.Close()
	}
	before, beforeFDs := runtime.NumGoroutine(), openFDs(t)

	srv := newTestServer(t, 4)
	loadDone := make(chan *LoadReport, 1)
	go func() {
		// A schedule far too long to finish: shutdown lands mid-run.
		rep, err := RunLoad(LoadConfig{
			Addr:        srv.Addr(),
			Conns:       64,
			TxnsPerConn: 100000,
			Seed:        11,
			IOTimeout:   5 * time.Second,
		})
		if err != nil {
			t.Errorf("RunLoad: %v", err)
		}
		loadDone <- rep
	}()

	// Let the run establish and transact, then pull the plug.
	time.Sleep(300 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	st := assertConservation(t, srv)
	if st.Accepted == 0 {
		t.Error("shutdown test accepted no connections")
	}
	if st.Drained == 0 {
		t.Errorf("expected mid-flight sessions to drain at shutdown: %+v", st)
	}
	if st.Txns == 0 {
		t.Error("no transactions served before shutdown")
	}

	rep := <-loadDone
	if rep != nil && rep.Txns == 0 {
		t.Error("load saw no verified transactions")
	}

	// Second Shutdown is a no-op, not a deadlock or panic.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}

	// The loop goroutine must be gone, and every descriptor it owned (the
	// listener, the epoll instance, 64 sockets) closed; the
	// load's own goroutines and sockets are gone once RunLoad has returned.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+4 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d -> %d after shutdown\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
	if after := openFDs(t); after > beforeFDs {
		t.Errorf("descriptor leak: %d open before the server, %d after Shutdown", beforeFDs, after)
	}
}

// TestLiveServerMetrics scrapes the server_* family off a live metrics
// endpoint and shuts it down gracefully.
func TestLiveServerMetrics(t *testing.T) {
	srv := newTestServer(t, 2)
	defer srv.Close()

	ms, err := telemetry.StartServer("127.0.0.1:0", srv.Registry().Snapshot)
	if err != nil {
		t.Fatalf("telemetry.StartServer: %v", err)
	}

	rep, err := RunLoad(LoadConfig{Addr: srv.Addr(), Conns: 8, TxnsPerConn: 3, Seed: 3})
	if err != nil || rep.Failures != 0 {
		t.Fatalf("RunLoad: err=%v failures=%+v", err, rep)
	}

	resp, err := http.Get("http://" + ms.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"server_accepted_total 8",
		"server_txns_total 24",
		"server_active_connections",
		"server_frames_synthesized_total",
		"shard_health_state",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ms.Shutdown(ctx); err != nil {
		t.Errorf("metrics Shutdown: %v", err)
	}
	if _, err := http.Get("http://" + ms.Addr() + "/metrics"); err == nil {
		t.Error("metrics endpoint still serving after Shutdown")
	}
}

// TestLiveIdleShutdown covers the degenerate ledger: no traffic at all.
func TestLiveIdleShutdown(t *testing.T) {
	srv := newTestServer(t, 1)
	if srv.Addr() == "" {
		t.Fatal("no bound address")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := assertConservation(t, srv)
	if st.Accepted != 0 {
		t.Errorf("idle server accepted %d", st.Accepted)
	}
}

// TestLiveProtocolErrors drives malformed requests through a real
// socket, a line longer than MaxLineLen among them: the server answers
// ERR lines and the connection (and ledger) survive.
func TestLiveProtocolErrors(t *testing.T) {
	srv := newTestServer(t, 2)
	defer srv.Close()

	conn, err := dialRetry(srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	rd := newLineReader(conn)

	if _, err := fmt.Fprintf(conn, "BOGUS nope\n"); err != nil {
		t.Fatalf("write: %v", err)
	}
	line, err := rd.readLine(nil)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !strings.HasPrefix(string(line), "ERR ") {
		t.Fatalf("want ERR response, got %q", line)
	}

	// A line that outgrows MaxLineLen is refused while it is still coming,
	// and what follows up to its newline is one more bad line.
	if _, err := conn.Write([]byte(strings.Repeat("x", MaxLineLen+44))); err != nil {
		t.Fatalf("write: %v", err)
	}
	if line, err = rd.readLine(nil); err != nil || string(line) != "ERR line too long\n" {
		t.Fatalf("over-long line: got %q, %v", line, err)
	}
	if _, err := conn.Write([]byte("\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if line, err = rd.readLine(nil); err != nil || !strings.HasPrefix(string(line), "ERR ") {
		t.Fatalf("tail of the over-long line: got %q, %v", line, err)
	}

	// The connection still works for a valid transaction afterwards.
	oracle := NewLedger()
	req := Req{Branch: 1, Teller: 1, Account: 1, Delta: 50}
	want := oracle.Expected(req)
	if _, err := conn.Write(FormatRequest(1, 1, 1, 50)); err != nil {
		t.Fatalf("write txn: %v", err)
	}
	line, err = rd.readLine(nil)
	if err != nil {
		t.Fatalf("read txn: %v", err)
	}
	if string(line) != string(want) {
		t.Fatalf("post-error txn: got %q want %q", line, want)
	}
}
