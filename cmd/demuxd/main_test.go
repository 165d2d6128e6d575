//go:build linux

package main

import (
	"net"
	"testing"
	"time"

	"tcpdemux/internal/server"
)

// freeAddr reserves a loopback port by binding and releasing it; run()
// needs a concrete address because it does not report the bound port.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserve port: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestLiveDemuxdSmoke boots the real daemon entry point (flag wiring
// aside), serves a small verified load, and drains it through the stop
// channel the way a SIGTERM would.
func TestLiveDemuxdSmoke(t *testing.T) {
	addr := freeAddr(t)
	metrics := freeAddr(t)
	stop := make(chan struct{})
	errC := make(chan error, 1)
	go func() {
		errC <- run(addr, "flat-hopscotch", "multiplicative", 256, 2, 42, metrics, 10*time.Second, stop)
	}()

	rep, err := server.RunLoad(server.LoadConfig{
		Addr:        addr,
		Conns:       16,
		TxnsPerConn: 4,
		Reopens:     1,
		Seed:        5,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if rep.Failures != 0 {
		t.Fatalf("%d failures (first: %s)", rep.Failures, rep.FirstError)
	}

	close(stop)
	select {
	case err := <-errC:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not drain after stop")
	}
}
