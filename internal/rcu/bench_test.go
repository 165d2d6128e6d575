package rcu_test

import (
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/rcu"
	"tcpdemux/internal/rng"
	"tcpdemux/internal/tpca"
)

// benchDemuxer builds a populated table: n exact connections plus one
// listener, the TPC/A shape the throughput benches use.
func benchDemuxer(b *testing.B, n int) *rcu.Demuxer {
	d := rcu.New(19, nil)
	if err := d.Insert(core.NewListenPCB(core.ListenKey(tpca.ServerAddr.Addr, tpca.ServerAddr.Port))); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := d.Insert(core.NewPCB(tpca.UserKey(i))); err != nil {
			b.Fatal(err)
		}
	}
	return d
}

// benchKeys is a uniform-random hit-only key stream over n connections.
func benchKeys(n, length int) []core.Key {
	src := rng.New(11)
	keys := make([]core.Key, length)
	for i := range keys {
		keys[i] = tpca.UserKey(src.Intn(n))
	}
	return keys
}

// BenchmarkLookup measures the lock-free per-packet fast path on a
// 1000-connection table (chains ~53 entries long at H=19).
func BenchmarkLookup(b *testing.B) {
	const n = 1000
	d := benchDemuxer(b, n)
	keys := benchKeys(n, 8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Lookup(keys[i&8191], core.DirData)
	}
}
