// Package lint is demuxvet: a family of static analyzers that
// mechanically enforce the repository's determinism, atomic-access, and
// hot-path invariants. The reproduction's figure of merit (PCBs examined
// per inbound packet) is trustworthy only because the simulation is
// deterministic — virtual time driven by Stack.Tick, seeded RNG via
// internal/rng — and because counters shared between goroutines are
// touched only atomically. These invariants used to live in comments and reviewer memory; this package
// turns them into machine-checked rules.
//
// The API deliberately mirrors golang.org/x/tools/go/analysis (Analyzer,
// Pass, Diagnostic) so the analyzers could be ported to the real driver
// verbatim; the module vendors no dependencies, so the framework is a
// small stdlib-only reimplementation and cmd/demuxvet provides both a
// standalone driver and a `go vet -vettool` unitchecker.
//
// Analyzers (see their files for details):
//
//	directive    — every //demux: comment parses and validates against the
//	               annotation grammar (no waiver: fix the directive)
//	virtualtime  — no wall clock in virtual-time packages (//demux:wallclock waives)
//	seededrand   — no global math/rand anywhere (//demux:globalrand waives)
//	mapiter      — no order-sensitive map iteration in result-feeding code
//	               (//demux:orderinvariant waives)
//	atomicpub    — fields marked //demux:atomic are touched only via atomic
//	               operations (//demux:atomicguarded waives)
//	singlewriter — fields marked //demux:singlewriter(owner=role) are only
//	               accessed from //demux:owner(role) functions
//	               (//demux:crossaccess waives)
//	hotalloc     — functions marked //demux:hotpath stay allocation-free
//	               (//demux:allowalloc waives)
//	stalewaiver  — waivers that suppressed no finding in the run are
//	               reported, so the waiver inventory cannot rot
//
// Every waiver directive requires a reason after the directive name; a
// reasonless waiver still suppresses the underlying finding but draws its
// own diagnostic, so each exception documents why it is safe. A waiver
// that suppresses nothing at all is itself a finding (stalewaiver), so
// deleting the code under a waiver forces deleting the waiver.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one analysis pass and how to run it. It mirrors
// analysis.Analyzer from golang.org/x/tools.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package, reporting diagnostics
	// through the pass.
	Run func(*Pass) error
}

// A Pass presents one package to an Analyzer's Run function, mirroring
// analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed syntax trees (test files excluded).
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	dirs  *directives
	diags *[]Diagnostic
}

// A Diagnostic is one finding, resolved to a concrete position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// waived reports whether a //demux:<name> directive covers pos (same line
// or the line immediately above). A reasonless waiver still suppresses
// the underlying finding but draws its own diagnostic. Consulting a
// waiver marks it used, which is what keeps it off the stalewaiver
// report.
func (p *Pass) waived(pos token.Pos, name string) bool {
	d := p.dirs.at(p.Fset.Position(pos), name)
	if d == nil {
		return false
	}
	d.used = true
	if d.reason == "" {
		p.Reportf(pos, "//demux:%s waiver needs a reason", name)
	}
	return true
}

// Run applies every analyzer to the package and returns the diagnostics
// sorted by position then analyzer name, so output order never depends on
// analyzer-internal iteration order.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	dirs := parseDirectives(pkg.Fset, pkg.Files)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			dirs:     dirs,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return diags, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// A PackageFilter restricts an analyzer to packages whose import path it
// accepts; a nil filter accepts every package the driver feeds in.
type PackageFilter func(pkgPath string) bool

// PathPrefixFilter accepts a package whose import path equals one of the
// prefixes or lives below one of them. The " [pkg.test]" suffix the go
// command appends to test variants is ignored.
func PathPrefixFilter(prefixes ...string) PackageFilter {
	return func(pkgPath string) bool {
		if i := strings.IndexByte(pkgPath, ' '); i >= 0 {
			pkgPath = pkgPath[:i]
		}
		for _, p := range prefixes {
			if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
				return true
			}
		}
		return false
	}
}

// inspectStack walks root like ast.Inspect but hands fn the path of
// enclosing nodes (outermost first, n last). Returning false prunes the
// subtree under n.
func inspectStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, append(stack, n)) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// useOf resolves an identifier to the object it uses or defines.
func useOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// isPkgFunc reports whether obj is the package-level function pkg.name
// for one of the given package paths.
func isPkgFunc(obj types.Object, names map[string]bool, pkgPaths ...string) bool {
	fn, ok := obj.(*types.Func)
	if ok && fn.Pkg() != nil && names[fn.Name()] && fn.Type().(*types.Signature).Recv() == nil {
		for _, p := range pkgPaths {
			if fn.Pkg().Path() == p {
				return true
			}
		}
	}
	return false
}
