package discipline

import (
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/parallel"
)

func TestSelectValidatesEagerly(t *testing.T) {
	if _, err := Select("no-such-discipline", "multiplicative", 64); err == nil {
		t.Error("unknown discipline accepted")
	}
	if _, err := Select("sequent", "no-such-hash", 64); err == nil {
		t.Error("unknown hash accepted")
	}
	sel, err := Select(" sequent ", "multiplicative", 64)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if sel.Name != "sequent" {
		t.Errorf("name not trimmed: %q", sel.Name)
	}
}

// Importing this package must guarantee the flat registration — the
// exact gap that let the sharded workloads drift to hard-coded sequent.
func TestFlatNamesRegistered(t *testing.T) {
	sel, err := Select("flat-hopscotch", "multiplicative", 64)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if _, err := sel.New(); err != nil {
		t.Errorf("New: %v", err)
	}
}

func TestPerShardReturnsIndependentTables(t *testing.T) {
	sel, err := Select("sequent", "multiplicative", 64)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	mk := sel.PerShard()
	a, b := mk(0), mk(1)
	if a == b {
		t.Fatal("PerShard returned a shared instance")
	}
}

// Concurrent (locking-discipline) names are parallel's registry, not this
// package's: sharded-sequent's locks have no place in a table one shard
// owns, so Select must reject it while parallel.New builds it.
func TestSelectConcurrentUsesParallelRegistry(t *testing.T) {
	if _, err := Select("sharded-sequent", "multiplicative", 64); err == nil {
		t.Error("single-writer Select accepted a parallel-only name")
	}
	if _, err := parallel.New("sharded-sequent", core.Config{Chains: 64}); err != nil {
		t.Errorf("parallel.New: %v", err)
	}
}

func TestNamesNonEmpty(t *testing.T) {
	if len(Names()) == 0 {
		t.Fatal("empty registry")
	}
}
