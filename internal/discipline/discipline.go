// Package discipline is the one place a demultiplexing discipline is
// resolved from its command-line name. demuxd and demuxsim both accept
// `-discipline`/`-algos` + `-hash` + `-chains` flags; before
// this package each binary paired hashfn.ByName with core.New (or
// parallel.New, or a hard-coded constructor) on its own, which is
// exactly how the sharded workloads drifted into hard-coding
// sequent-multiplicative regardless of the flags. Selecting through one
// helper keeps the binaries' name spaces identical and makes a
// per-shard factory (what shard.Config consumes) derivable from the
// same validated selection as a single table.
//
// Importing this package also guarantees the flat discipline is
// registered: internal/flat registers flat-hopscotch from an init hook,
// so a binary that resolved names through core.New alone would silently
// lack it unless something else imported flat.
//
// Every name here is a table one goroutine owns, looked up one key at a
// time. The locking disciplines of internal/parallel (locked-bsd,
// locked-sequent, sharded-sequent) are a separate name space with a
// separate contract (core.Concurrent), used only by EXP-PAR's shared-table
// measurement; parallel.New resolves those.
package discipline

import (
	"fmt"
	"strings"

	"tcpdemux/internal/core"
	_ "tcpdemux/internal/flat" // register flat-hopscotch with core
	"tcpdemux/internal/hashfn"
	"tcpdemux/internal/rng"
)

// Selection is a validated (discipline, hash, chains) triple plus the seed
// its tables draw their secrets from. Zero value is invalid; build one
// with Select.
type Selection struct {
	Name   string
	Chains int
	Hash   hashfn.Func
	// Seed keys the tables: table i (PerShard's shard i; New builds table
	// 0) draws from the stream of Seed + i·tableStride. A keyed Hash is
	// replaced by a secret SipHash key drawn from that stream, so no table
	// serves hashfn.DefaultKeyed's public key, and auto-sequent's watchdog
	// draws its rekeys from the same stream. server.New fills it from
	// server.Config.Seed; Select leaves it 0.
	Seed uint64
}

// tableStride separates the tables' streams. It is neither the steering
// nor the ISS offset shard.NewStackSet takes from the same seed, so no
// table key equals the steering key.
const tableStride = 0xd1b54a32d192ed03

// Select resolves a discipline name and a hash-function name into a
// Selection, validating both eagerly: the discipline must be registered
// with core (flat's registrations included) and the hash must be known
// to hashfn.ByName. Surrounding whitespace on the discipline name is
// trimmed so comma-separated flag lists split cleanly.
func Select(name, hashName string, chains int) (Selection, error) {
	hashFn, err := hashfn.ByName(hashName)
	if err != nil {
		return Selection{}, err
	}
	sel := Selection{Name: strings.TrimSpace(name), Chains: chains, Hash: hashFn}
	if _, err := sel.New(); err != nil {
		return Selection{}, err
	}
	return sel, nil
}

// New constructs a fresh single-writer demuxer instance of the selected
// discipline: table 0 of the selection. Each call returns an independent
// table.
func (sel Selection) New() (core.Demuxer, error) { return sel.table(0) }

// table builds table i, keyed from its own stream of sel.Seed.
func (sel Selection) table(i int) (core.Demuxer, error) {
	cfg := core.Config{Chains: sel.Chains, Hash: sel.Hash, Seed: sel.Seed + uint64(i)*tableStride}
	if _, keyed := sel.Hash.(hashfn.Keyed); keyed {
		src := rng.New(cfg.Seed)
		cfg.Hash, cfg.Seed = hashfn.KeyedFromRNG(src), src.Uint64()
	}
	return core.New(sel.Name, cfg)
}

// PerShard returns the per-shard factory a shard.Config consumes: every
// shard gets its own instance, under its own key, so no lookup state is
// shared. The selection was validated by Select, so a construction
// failure here is a programming error and panics rather than forcing an
// error path into every shard.Config literal.
func (sel Selection) PerShard() func(shard int) core.Demuxer {
	return func(shard int) core.Demuxer {
		d, err := sel.table(shard)
		if err != nil {
			panic(fmt.Sprintf("discipline: validated selection %q failed to construct: %v", sel.Name, err))
		}
		return d
	}
}

// Names returns the registered discipline names, sorted.
func Names() []string { return core.Algorithms() }
