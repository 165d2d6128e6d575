package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the package's import path (the analyzers' policy matches on
	// it).
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Loader parses and type-checks packages from source with no toolchain
// dependencies beyond GOROOT: module-local packages are resolved under
// Root, everything else (the standard library) through go/importer's
// source importer. Loads are memoized, so a whole-repo run type-checks
// each package — and the stdlib behind it — once.
//
// Test files (*_test.go) are never loaded: the invariants demuxvet
// enforces protect the shipped simulation, while tests legitimately
// measure wall time and iterate maps.
type Loader struct {
	Fset *token.FileSet
	// Module is the module path mapped to Root; empty means GOPATH-style
	// resolution (any import path that names a directory under Root is
	// local), which the analyzer fixtures use.
	Module string
	Root   string
	// Tags are extra build tags considered satisfied when evaluating
	// //go:build constraints, mirroring `go build -tags`. A loader with
	// Tags ["race"] sees the same file set `make race` compiles, so the
	// analyzers can be pointed at race-only harness code too.
	Tags []string

	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader rooted at root for the given module path.
func NewLoader(root, module string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		Module:  module,
		Root:    root,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
}

// dirFor maps an import path to its directory under Root, if local.
func (l *Loader) dirFor(path string) (string, bool) {
	switch {
	case l.Module == "":
		dir := filepath.Join(l.Root, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir, true
		}
	case path == l.Module:
		return l.Root, true
	case strings.HasPrefix(path, l.Module+"/"):
		rel := strings.TrimPrefix(path, l.Module+"/")
		return filepath.Join(l.Root, filepath.FromSlash(rel)), true
	}
	return "", false
}

// Import implements types.Importer, letting the type-checker resolve the
// imports of whatever package is being loaded.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := l.dirFor(path); ok {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// GoFiles lists the package's non-test Go source files in a directory,
// sorted for deterministic load order. tags are extra build tags treated
// as satisfied, as by `go build -tags`.
func GoFiles(dir string, tags ...string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		full := filepath.Join(dir, name)
		if !buildTagOK(full, tags) {
			continue
		}
		files = append(files, full)
	}
	sort.Strings(files)
	return files, nil
}

// buildTagOK reports whether the file's //go:build constraint (if any) is
// satisfied by the build configuration: host GOOS/GOARCH, the gc
// compiler, and the given extra tags. With no extra tags demuxvet
// analyzes each package as a plain `go build` would compile it, so
// alternate-implementation files selected by opt-in tags don't collide
// with their default twins during type-checking; with Tags ["race"] the selection matches a `go build
// -race` run (which sets the race tag implicitly), so !race fallbacks
// drop out and their race-only twins load instead.
func buildTagOK(name string, tags []string) bool {
	data, err := os.ReadFile(name)
	if err != nil {
		return true // leave the error to the parser, which reports it better
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "//") {
			if expr, err := constraint.Parse(line); err == nil {
				return expr.Eval(func(tag string) bool {
					if tag == runtime.GOOS || tag == runtime.GOARCH || tag == "gc" {
						return true
					}
					for _, t := range tags {
						if tag == t {
							return true
						}
					}
					return false
				})
			}
			continue
		}
		break // reached the package clause: past the constraint preamble
	}
	return true
}

// Load parses and type-checks the package at the given import path.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("lint: %q is not under %s", path, l.Root)
	}
	names, err := GoFiles(dir, l.Tags...)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, info, err := Check(path, l.Fset, files, l)
	if err != nil {
		return nil, err
	}
	p := &Package{Path: path, Fset: l.Fset, Files: files, Types: pkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// Check type-checks one package's files with the given importer,
// returning the package and a fully populated types.Info.
func Check(path string, fset *token.FileSet, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return pkg, info, nil
}
