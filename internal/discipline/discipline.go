// Package discipline is the one place a demultiplexing discipline is
// resolved from its command-line name. demuxd, demuxsim, and benchjson
// all accept `-discipline`/`-algos` + `-hash` + `-chains` flags; before
// this package each binary paired hashfn.ByName with core.New (or
// parallel.New, or a hard-coded constructor) on its own, which is
// exactly how the sharded workloads drifted into hard-coding
// sequent-multiplicative regardless of the flags. Selecting through one
// helper keeps the three binaries' name spaces identical and makes a
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
)

// Selection is a validated (discipline, hash, chains) triple. Zero value
// is invalid; build one with Select.
type Selection struct {
	Name   string
	Chains int
	Hash   hashfn.Func
}

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
// discipline. Each call returns an independent table.
func (sel Selection) New() (core.Demuxer, error) {
	return core.New(sel.Name, core.Config{Chains: sel.Chains, Hash: sel.Hash})
}

// PerShard returns the per-shard factory a shard.Config consumes: every
// shard gets its own instance so no lookup state is shared. The
// selection was validated by Select, so a construction failure here is
// a programming error and panics rather than forcing an error path into
// every shard.Config literal.
func (sel Selection) PerShard() func(shard int) core.Demuxer {
	return func(int) core.Demuxer {
		d, err := sel.New()
		if err != nil {
			panic(fmt.Sprintf("discipline: validated selection %q failed to construct: %v", sel.Name, err))
		}
		return d
	}
}

// Names returns the registered discipline names, sorted.
func Names() []string { return core.Algorithms() }
