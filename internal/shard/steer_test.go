package shard

import (
	"testing"

	"tcpdemux/internal/hashfn"
	"tcpdemux/internal/wire"
)

func TestSteeringStableAndBounded(t *testing.T) {
	st := NewSteering(4, hashfn.DefaultKeyed)
	if st.Shards() != 4 {
		t.Fatalf("Shards = %d", st.Shards())
	}
	counts := make([]int, 4)
	for i := 0; i < 4096; i++ {
		tup := wire.Tuple{
			SrcAddr: wire.Addr{10, 0, byte(i >> 8), byte(i)},
			DstAddr: wire.Addr{10, 0, 0, 1},
			SrcPort: uint16(1024 + i%40000),
			DstPort: 1521,
		}
		s := st.Shard(tup)
		if s < 0 || s >= 4 {
			t.Fatalf("Shard out of range: %d", s)
		}
		if again := st.Shard(tup); again != s {
			t.Fatalf("steering not stable: %d then %d", s, again)
		}
		counts[s]++
	}
	// The keyed hash should spread a structured population roughly evenly;
	// allow a generous band around the 1024 mean.
	for i, c := range counts {
		if c < 512 || c > 1536 {
			t.Fatalf("shard %d got %d of 4096 tuples — steering badly skewed %v", i, c, counts)
		}
	}
	// A different key steers differently (the property rekey relies on).
	st2 := NewSteering(4, hashfn.NewKeyed(1, 2))
	moved := 0
	for i := 0; i < 4096; i++ {
		tup := wire.Tuple{
			SrcAddr: wire.Addr{10, 0, byte(i >> 8), byte(i)},
			DstAddr: wire.Addr{10, 0, 0, 1},
			SrcPort: uint16(1024 + i%40000),
			DstPort: 1521,
		}
		if st.Shard(tup) != st2.Shard(tup) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("rekeyed steering moved no tuples")
	}

	if NewSteering(0, hashfn.DefaultKeyed).Shards() != 1 {
		t.Fatal("NewSteering(0) did not clamp to 1")
	}
}
