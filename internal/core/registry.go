package core

import (
	"fmt"
	"sort"
	"strings"

	"tcpdemux/internal/hashfn"
)

// Config parameterizes demuxer construction for the command-line tools and
// the benchmark harness.
type Config struct {
	// Chains is the hash chain count for the hashed algorithms
	// (DefaultChains if zero).
	Chains int
	// Hash selects the hash function for the hashed algorithms
	// (multiplicative if nil).
	Hash hashfn.Func
	// Seed seeds auto-sequent's chain-skew watchdog, whose rekeys draw
	// their keys from it.
	Seed uint64
}

// builders maps algorithm names to constructors.
var builders = map[string]func(Config) Demuxer{
	"bsd":          func(Config) Demuxer { return NewBSDList() },
	"mtf":          func(Config) Demuxer { return NewMTFList() },
	"sr":           func(Config) Demuxer { return NewSRCache() },
	"sequent":      func(c Config) Demuxer { return NewSequentHash(c.Chains, c.Hash) },
	"mtf-hash":     func(c Config) Demuxer { return NewMTFHash(c.Chains, c.Hash) },
	"auto-sequent": func(c Config) Demuxer { return NewAutoSequent(c.Chains, c.Hash, c.Seed) },
	"direct-index": func(Config) Demuxer { return NewDirectIndex() },
	"map":          func(Config) Demuxer { return NewMapDemux() },
}

// Register adds an external algorithm to the registry so the name-based
// tools (demuxsim -algos, demuxd -discipline) can construct it. Packages above
// core in the dependency order — internal/flat's open-addressing tables,
// for one — register themselves from init; registration is therefore
// visible exactly in binaries that (transitively) import the providing
// package. Registering a name twice panics: silent replacement would make
// two binaries disagree about what an algorithm name means.
func Register(name string, build func(Config) Demuxer) {
	if _, dup := builders[name]; dup {
		panic(fmt.Sprintf("core: algorithm %q registered twice", name))
	}
	builders[name] = build
}

// New constructs a demuxer by algorithm name. Valid names are listed by
// Algorithms.
func New(name string, cfg Config) (Demuxer, error) {
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown algorithm %q (have %s)",
			name, strings.Join(Algorithms(), ", "))
	}
	return b(cfg), nil
}

// Algorithms returns the registered algorithm names, sorted.
func Algorithms() []string {
	names := make([]string, 0, len(builders))
	for n := range builders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PaperAlgorithms returns the four algorithms the paper analyzes, in paper
// order.
func PaperAlgorithms(cfg Config) []Demuxer {
	return []Demuxer{
		NewBSDList(),
		NewMTFList(),
		NewSRCache(),
		NewSequentHash(cfg.Chains, cfg.Hash),
	}
}
