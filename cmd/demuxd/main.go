//go:build linux

// Command demuxd is the runnable server: a real TCP listener whose
// accepted connections are bridged through the sharded demultiplexing
// engine (RSS steering, the chosen discipline's lookups, the engine
// state machine, the timer wheel) and served the TPC/A transaction
// protocol. Load it with cmd/demuxload.
//
//	demuxd -addr :4821 -discipline flat-hopscotch -shards 4 -metrics :9090
//
// With no flags it serves auto-sequent, the table that defends itself
// against a collision attack, under a secret SipHash key per shard
// derived from its seed; `-hash siphash` always means such a key, never
// hashfn.DefaultKeyed's public one.
//
// SIGINT/SIGTERM triggers graceful shutdown: the listener closes,
// in-flight transactions flush, remaining sessions drain through the
// engine's FIN handshake, the metrics endpoint finishes in-flight
// scrapes, and the final conservation ledger prints.
package main

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tcpdemux/internal/discipline"
	"tcpdemux/internal/server"
	"tcpdemux/internal/telemetry"
)

// The table demuxd serves with no flags.
const defaultDiscipline, defaultHash, defaultChains = "auto-sequent", "siphash", 512

func main() {
	var (
		addr    = flag.String("addr", ":4821", "TCP listen address (host:port; port 0 picks a free port)")
		disc    = flag.String("discipline", defaultDiscipline, "per-shard demux discipline (see -list)")
		hash    = flag.String("hash", defaultHash, "hash function for hashed disciplines (siphash: a secret key per shard, from the seed)")
		chains  = flag.Int("chains", defaultChains, "hash chains for chained disciplines")
		shards  = flag.Int("shards", 4, "shard (queue) count")
		seed    = flag.Uint64("seed", 0, "steering-key, table-key, ISS and SYN-cookie seed (drawn from crypto/rand if not given)")
		metrics = flag.String("metrics", "", "serve /metrics and /metrics.json on this addr")
		list    = flag.Bool("list", false, "list available disciplines and exit")
		drainT  = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown deadline")
	)
	flag.Parse()
	if *list {
		fmt.Println(strings.Join(discipline.Names(), "\n"))
		return
	}
	s, err := seedFrom(flag.CommandLine, *seed)
	if err == nil {
		err = run(*addr, *disc, *hash, *chains, *shards, s, *metrics, *drainT, nil)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "demuxd:", err)
		os.Exit(1)
	}
}

// seedFrom returns seed if fs's command line gave -seed, and otherwise one
// drawn from crypto/rand: the steering key, the table keys, the ISS and
// the SYN-cookie secret all derive from it, so a fixed default would make
// them public.
func seedFrom(fs *flag.FlagSet, seed uint64) (uint64, error) {
	given := false
	fs.Visit(func(f *flag.Flag) { given = given || f.Name == "seed" })
	if given {
		return seed, nil
	}
	var b [8]byte
	_, err := rand.Read(b[:])
	return binary.LittleEndian.Uint64(b[:]), err
}

// run starts the server and blocks until a termination signal (or a
// caller-provided stop channel, which the smoke test uses) triggers the
// graceful drain.
func run(addr, disc, hash string, chains, shards int, seed uint64, metricsAddr string, drainTimeout time.Duration, stop <-chan struct{}) error {
	sel, err := discipline.Select(disc, hash, chains)
	if err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	srv, err := server.New(server.Config{
		Addr:       addr,
		Discipline: sel,
		Shards:     shards,
		Seed:       seed,
		Registry:   reg,
	})
	if err != nil {
		return err
	}
	fmt.Printf("demuxd: serving TPC/A on %s (discipline=%s shards=%d)\n", srv.Addr(), sel.Name, shards)

	var ms *telemetry.MetricsServer
	if metricsAddr != "" {
		ms, err = telemetry.StartServer(metricsAddr, reg.Snapshot)
		if err != nil {
			srv.Close()
			return err
		}
		fmt.Printf("demuxd: metrics on http://%s/metrics\n", ms.Addr())
	}

	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigC)
	select {
	case sig := <-sigC:
		fmt.Printf("demuxd: %v, draining\n", sig)
	case <-stop:
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err = srv.Shutdown(ctx)
	if ms != nil {
		if merr := ms.Shutdown(ctx); err == nil {
			err = merr
		}
	}
	st := srv.Stats()
	fmt.Printf("demuxd: drained — accepted=%d served=%d shed=%d drained=%d (txns=%d)\n",
		st.Accepted, st.Served, st.Shed, st.Drained, st.Txns)
	if st.Accepted != st.Served+st.Shed+st.Drained {
		return fmt.Errorf("conservation ledger unbalanced: accepted=%d != served+shed+drained=%d",
			st.Accepted, st.Served+st.Shed+st.Drained)
	}
	return err
}
