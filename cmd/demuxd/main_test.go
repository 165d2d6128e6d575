//go:build linux

package main

import (
	"flag"
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

// TestSeedDrawnUnlessGiven: each start without -seed draws its own seed,
// so the secrets derived from it differ from run to run; an explicit -seed
// is used as given.
func TestSeedDrawnUnlessGiven(t *testing.T) {
	start := func(args ...string) uint64 {
		fs := flag.NewFlagSet("demuxd", flag.ContinueOnError)
		seed := fs.Uint64("seed", 0, "")
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		s, err := seedFrom(fs, *seed)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if a, b := start(), start(); a == b {
		t.Fatalf("two starts without -seed both drew %d", a)
	}
	if s := start("-seed", "42"); s != 42 {
		t.Fatalf("-seed 42 gave seed %d", s)
	}
	if s := start("-seed", "0"); s != 0 {
		t.Fatalf("-seed 0 gave seed %d", s)
	}
}
