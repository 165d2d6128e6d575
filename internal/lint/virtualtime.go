package lint

import (
	"go/ast"
)

// wallclockFuncs are the package-level time functions that read or wait on
// the wall clock. Pure arithmetic on time.Duration and the time.Time type
// itself stay legal: the invariant is that simulated packages never ask
// the host what time it is.
var wallclockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// VirtualTime returns the virtualtime analyzer: packages whose results
// depend on the simulation's virtual clock (Stack.Tick, tpca.Run's event
// loop) must not consult the wall clock, or identical seeds would stop
// producing identical figures. restrict names the virtual-time packages;
// //demux:wallclock <reason> waives a deliberate wall-clock read, such as
// a harness measuring real elapsed time.
func VirtualTime(restrict PackageFilter) *Analyzer {
	a := &Analyzer{
		Name: "virtualtime",
		Doc:  "forbid wall-clock reads (time.Now, time.Sleep, ...) in virtual-time packages",
	}
	a.Run = func(pass *Pass) error {
		if restrict != nil && !restrict(pass.Pkg.Path()) {
			return nil
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || !isPkgFunc(useOf(pass.Info, id), wallclockFuncs, "time") {
					return true
				}
				if !pass.waived(id.Pos(), "wallclock") {
					pass.Reportf(id.Pos(), "time.%s reads the wall clock in virtual-time package %s; use the virtual clock or waive with //demux:wallclock <reason>", id.Name, pass.Pkg.Path())
				}
				return true
			})
		}
		return nil
	}
	return a
}
