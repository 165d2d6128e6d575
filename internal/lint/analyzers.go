package lint

// VirtualTimePackages are the packages driven by the simulation's virtual
// clock: results they produce must be a pure function of configuration
// and seed, so the wall clock is off limits. internal/parallel and
// internal/shard are included because their recorded lookup streams and
// steering epochs must replay deterministically; neither reads the wall
// clock, and one that did would need a //demux:wallclock waiver.
var VirtualTimePackages = []string{
	"tcpdemux/internal/sim",
	"tcpdemux/internal/engine",
	"tcpdemux/internal/timer",
	"tcpdemux/internal/tpca",
	"tcpdemux/internal/cachesim",
	"tcpdemux/internal/parallel",
	"tcpdemux/internal/shard",
}

// Default returns the demuxvet suite with the repository's policy, in the
// order diagnostics should be attributed. The order also encodes the two
// real constraints: directive runs first so grammar errors surface before
// the contract analyzers silently skip the malformed annotation, and
// stalewaiver runs last because "stale" is defined as "no earlier
// analyzer consumed this waiver". Everything else applies to every
// package the driver feeds in; the marker-driven analyzers are no-ops
// where nothing is annotated.
func Default() []*Analyzer {
	return []*Analyzer{
		Directive(),
		VirtualTime(PathPrefixFilter(VirtualTimePackages...)),
		SeededRand(),
		MapIter(nil),
		SingleWriter(),
		HotAlloc(),
		StaleWaiver(),
	}
}
