package shard

import (
	"fmt"
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/hashfn"
	"tcpdemux/internal/wire"
)

// walkCounter is a shard's demuxer that counts the PCBs its Walk visits.
type walkCounter struct {
	core.Demuxer
	visits *int
}

func (w walkCounter) Walk(fn func(*core.PCB) bool) {
	w.Demuxer.Walk(func(p *core.PCB) bool {
		*w.visits++
		return fn(p)
	})
}

// TestRekeyWalksLinearly: a rekey collects each shard's PCBs once and hands
// every mover's PCB to Extract, so it visits each PCB about once (a mover
// is seen again on a later shard it lands on), never a table walk per
// moved connection.
func TestRekeyWalksLinearly(t *testing.T) {
	const n = 4000
	visits := 0
	set, err := NewStackSet(wire.MakeAddr(10, 0, 0, 1), Config{
		Shards: 4,
		NewDemuxer: func(int) core.Demuxer {
			return walkCounter{core.NewSequentHash(0, hashfn.Multiplicative{}), &visits}
		},
		Seed: 29,
	})
	if err != nil {
		t.Fatal(err)
	}
	establish(t, set, n)
	visits = 0
	if moved := set.Rekey(); moved < n/2 {
		t.Fatalf("Rekey moved %d of %d connections", moved, n)
	}
	if visits > 2*n {
		t.Fatalf("one Rekey visited %d PCBs for %d connections, want <= %d", visits, n, 2*n)
	}
	checkOwnership(t, set)
}

// BenchmarkRekey times one Rekey — the pause a steering change costs the
// set's owner — over n connections on 4 shards of 512 chains each.
func BenchmarkRekey(b *testing.B) {
	for _, n := range []int{1000, 16000, 64000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			set, err := NewStackSet(wire.MakeAddr(10, 0, 0, 1), Config{
				Shards: 4,
				NewDemuxer: func(int) core.Demuxer {
					return core.NewSequentHash(512, hashfn.Multiplicative{})
				},
				Seed: 31,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := set.Listen(echoPort, nil); err != nil {
				b.Fatal(err)
			}
			populate(b, set, n, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				set.Rekey()
			}
		})
	}
}
