package shard

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"tcpdemux/internal/core"
	"tcpdemux/internal/discipline"
	"tcpdemux/internal/engine"
	"tcpdemux/internal/hashfn"
	"tcpdemux/internal/rng"
	"tcpdemux/internal/wire"
)

// populate completes n handshakes with set's echoPort listener, one at a
// time as a client population arrives, so the set's timer pool holds a
// handshake's timers and not n of them. The clients are engine Stacks of
// at most 16,000 connections each, the ephemeral ports of one address;
// each is dropped once its handshakes are done, after keep (if not nil)
// has seen it.
func populate(tb testing.TB, set *StackSet, n int, keep func(client *engine.Stack)) {
	tb.Helper()
	for opened := 0; opened < n; {
		client := engine.NewStack(wire.MakeAddr(10, 0, 1, byte(opened/16000)), core.NewMapDemux(), 8)
		for i := 0; i < 16000 && opened < n; i, opened = i+1, opened+1 {
			if _, err := client.ConnectEphemeral(set.Addr(), echoPort, nil); err != nil {
				tb.Fatal(err)
			}
			if _, err := engine.Pump(client, set); err != nil {
				tb.Fatal(err)
			}
		}
		if keep != nil {
			keep(client)
		}
	}
	if got, want := set.Len(), n+set.Shards(); got != want {
		tb.Fatalf("%d PCBs, want %d connections and %d listeners", got, n, set.Shards())
	}
}

// heapAlloc is the live heap after two full collections: the second
// empties the sync.Pool victim caches the first left (the test runner's
// regexp state among them).
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestEngineBytesPerConnection holds the engine's share of a resident
// connection under go test: the live heap of a 4 × 512 sequent set, built
// and then given 6,000 completed handshakes, per connection. It counts
// the Conn (64 B; an idle connection holds no txState), the list entries
// (25.6 B), and the set's fixed costs spread over the population: the
// chain arrays (12.3 B) and the timer wheels (4.4 B). That reads 109 B; a
// Conn one size class up (80 B) reads 125 B, and one that keeps its
// txState resident reads 173 B.
func TestEngineBytesPerConnection(t *testing.T) {
	const n = 6000
	before := heapAlloc()
	set, err := NewStackSet(wire.MakeAddr(10, 0, 0, 1), Config{
		Shards: 4,
		NewDemuxer: func(int) core.Demuxer {
			return core.NewSequentHash(512, hashfn.Multiplicative{})
		},
		Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Listen(echoPort, nil); err != nil {
		t.Fatal(err)
	}
	populate(t, set, n, nil)
	perConn := float64(heapAlloc()-before) / n
	runtime.KeepAlive(set)
	if perConn > 112 {
		t.Fatalf("the set holds %.1f B per connection, want <= 112", perConn)
	}
}

// scaleConn is one connection BenchmarkScale drives: its client-side key
// and the client's next sequence number and acknowledgement.
type scaleConn struct {
	key            core.Key
	sndNxt, rcvNxt uint32
}

// scaleSet is a populated set and what BenchmarkScale measured building it.
type scaleSet struct {
	set    *StackSet
	conns  []scaleConn // a sample of the population, in random order
	bytes  float64     // live heap per connection
	setupS float64     // seconds to complete the handshakes
	tickNs float64     // one idle Tick
}

// Every request BenchmarkScale sends, and the one answer its handler gives.
var (
	scaleRequest  = []byte("txn 0000000000 +000")
	scaleResponse = []byte("ok: 0000000000 0000000000")
)

// buildScale builds a replay-oltp-shaped set, shards tables of discipline
// name with chains chains each (auto-sequent's starting count;
// flat-hopscotch sizes itself), and populates it with n connections. It
// keeps 4,096 of them, drawn evenly over the clients, for the request path.
func buildScale(b *testing.B, name string, n, shards, chains int) *scaleSet {
	sel, err := discipline.Select(name, "multiplicative", chains)
	if err != nil {
		b.Fatal(err)
	}
	sc := &scaleSet{}
	before := heapAlloc()
	sc.set, err = NewStackSet(wire.MakeAddr(10, 0, 0, 1), Config{Shards: shards, NewDemuxer: sel.PerShard(), Seed: 37})
	if err != nil {
		b.Fatal(err)
	}
	if err := sc.set.Listen(echoPort, func(*engine.Conn, []byte) []byte { return scaleResponse }); err != nil {
		b.Fatal(err)
	}
	stride := max(1, n/4096)
	seen := 0
	t0 := time.Now()
	populate(b, sc.set, n, func(client *engine.Stack) {
		for _, p := range client.PCBs() {
			if seen++; seen%stride == 0 {
				sc.conns = append(sc.conns, scaleConn{p.Key, p.SndNxt, p.RcvNxt})
			}
		}
	})
	sc.setupS = time.Since(t0).Seconds()
	sc.bytes = float64(heapAlloc()-before) / float64(n)
	src := rng.New(41)
	src.Shuffle(len(sc.conns), func(i, j int) { sc.conns[i], sc.conns[j] = sc.conns[j], sc.conns[i] })

	const ticks = 1000
	t0 = time.Now()
	for i := 1; i <= ticks; i++ {
		sc.set.Tick(float64(i) * 5e-3)
	}
	sc.tickNs = float64(time.Since(t0).Nanoseconds()) / ticks
	return sc
}

// frames builds the request and acknowledgement frames of the next
// transaction on each of count sampled connections, taken round-robin
// from *next, and advances their sequence numbers past it.
func (sc *scaleSet) frames(b *testing.B, count int, next *int, out [][]byte) [][]byte {
	out = out[:0]
	for i := 0; i < count; i++ {
		c := &sc.conns[*next%len(sc.conns)]
		*next++
		ip := wire.IPv4Header{TTL: 64, Src: c.key.LocalAddr, Dst: c.key.RemoteAddr}
		tcp := wire.TCPHeader{SrcPort: c.key.LocalPort, DstPort: c.key.RemotePort,
			Seq: c.sndNxt, Ack: c.rcvNxt, Flags: wire.FlagACK | wire.FlagPSH, Window: 65535}
		req, err := wire.BuildSegment(ip, tcp, scaleRequest)
		if err != nil {
			b.Fatal(err)
		}
		c.sndNxt += uint32(len(scaleRequest))
		c.rcvNxt += uint32(len(scaleResponse))
		tcp.Seq, tcp.Ack, tcp.Flags = c.sndNxt, c.rcvNxt, wire.FlagACK
		ack, err := wire.BuildSegment(ip, tcp, nil)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, req, ack)
	}
	return out
}

// scaleCase is one BenchmarkScale sub-benchmark: its name, a discipline,
// its population, and the set's shape.
type scaleCase struct {
	bench, name       string
	n, shards, chains int
}

// BenchmarkScale is EXP-SCALE and the time column of EXP-SHARD and
// EXP-CACHE. EXP-SCALE's rows are a set of 4 shards holding n established
// connections, for auto-sequent (512 starting chains) and flat-hopscotch
// at n = 10⁴, 10⁵ and 10⁶, named <discipline>/N=<n>. EXP-SHARD's rows hold
// 6,000 connections for sequent, flat-hopscotch and bsd at 1 and 4 shards
// of 19 chains, and sequent at 1 shard of 76, named
// <discipline>/N=6000/<shards>x<chains>. ns/op is one request and its ACK
// through StackSet.Deliver, on connections drawn at random from the
// population. B/conn is the set's live heap per connection, its fixed
// costs included; setup-s the time to complete the n handshakes, one at a
// time, the client stacks' share included; tick-ns one 5-ms Tick with
// every connection idle. At 10⁶ it holds up to 250 MB of live heap, and
// the whole run takes under 20 s on a 2-CPU host: run it alone, with
// -benchtime 200000x.
func BenchmarkScale(b *testing.B) {
	var cases []scaleCase
	for _, name := range []string{"auto-sequent", "flat-hopscotch"} {
		for _, n := range []int{1e4, 1e5, 1e6} {
			cases = append(cases, scaleCase{fmt.Sprintf("%s/N=%d", name, n), name, n, 4, 512})
		}
	}
	split := func(name string, shards, chains int) scaleCase {
		return scaleCase{fmt.Sprintf("%s/N=6000/%dx%d", name, shards, chains), name, 6000, shards, chains}
	}
	for _, name := range []string{"sequent", "flat-hopscotch", "bsd"} {
		cases = append(cases, split(name, 1, 19), split(name, 4, 19))
	}
	cases = append(cases, split("sequent", 1, 76))
	for _, c := range cases {
		var sc *scaleSet
		b.Run(c.bench, func(b *testing.B) {
			if sc == nil {
				sc = buildScale(b, c.name, c.n, c.shards, c.chains)
			}
			answered := 0
			sc.set.SetEgressTap(func([]byte) { answered++ })
			var batch [][]byte
			next := 0
			b.ResetTimer()
			for done := 0; done < b.N; {
				b.StopTimer()
				count := min(b.N-done, 4096)
				batch = sc.frames(b, count, &next, batch)
				b.StartTimer()
				for _, f := range batch {
					if _, err := sc.set.Deliver(f); err != nil {
						b.Fatal(err)
					}
				}
				done += count
			}
			b.StopTimer()
			if answered != b.N {
				b.Fatalf("%d responses to %d requests", answered, b.N)
			}
			b.ReportMetric(sc.bytes, "B/conn")
			b.ReportMetric(sc.setupS, "setup-s")
			b.ReportMetric(sc.tickNs, "tick-ns")
		})
		sc = nil // let a 10⁶ set go before the next is built
	}
}
