package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestRepoIsClean runs the default analyzer suite — all seven, including
// the concurrency-contract analyzers and stalewaiver — over every
// package in this module and asserts zero findings: the invariants the
// analyzers enforce must actually hold in the tree that ships them, and
// every waiver in the tree must still be earning its keep.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(root, "tcpdemux")
	for _, pkg := range modulePackages(t, root) {
		p, err := loader.Load(pkg)
		if err != nil {
			t.Fatalf("loading %s: %v", pkg, err)
		}
		diags, err := Run(p, Default())
		if err != nil {
			t.Fatalf("analyzing %s: %v", pkg, err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}

// TestRepoIsCleanUnderRaceTag repeats the repo-clean pin with the race
// build tag set, so the file set the analyzers see agrees with what
// `make race` compiles. Only packages that actually contain race-tagged
// files differ; today none do, and this test keeps the loader honest for
// the day one appears.
func TestRepoIsCleanUnderRaceTag(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(root, "tcpdemux")
	loader.Tags = []string{"race"}
	for _, pkg := range modulePackages(t, root) {
		p, err := loader.Load(pkg)
		if err != nil {
			t.Fatalf("loading %s with race tag: %v", pkg, err)
		}
		diags, err := Run(p, Default())
		if err != nil {
			t.Fatalf("analyzing %s with race tag: %v", pkg, err)
		}
		for _, d := range diags {
			t.Errorf("race tag: %s", d)
		}
	}
}

// modulePackages lists the import paths of every buildable package under
// root, skipping only testdata and build-output directories — the same
// surface `make lint` covers, examples included.
func modulePackages(t *testing.T, root string) []string {
	t.Helper()
	var pkgs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "bin" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			if rel == "." {
				pkgs = append(pkgs, "tcpdemux")
			} else {
				pkgs = append(pkgs, "tcpdemux/"+filepath.ToSlash(rel))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(pkgs)
	if len(pkgs) == 0 {
		t.Fatal("found no packages under the module root")
	}
	return pkgs
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		name := e.Name()
		if e.Type().IsRegular() && strings.HasSuffix(name, ".go") &&
			!strings.HasSuffix(name, "_test.go") &&
			!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_") {
			return true
		}
	}
	return false
}

// TestFramePathPackagesDeclareNoMutex pins the single-owner contract of
// the packages a frame crosses: engine, shard and frag state belongs to the
// one goroutine that drives Deliver/Tick (the //demux:owner(deliver)
// annotations say which state), so no non-test file in them may mention
// sync.Mutex or sync.RWMutex, or import sync/atomic: state with one owner
// needs neither a lock nor an atomic. Either coming back means a second
// goroutine came with it, and the contract has to be redrawn first.
func TestFramePathPackagesDeclareNoMutex(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, dir := range []string{"internal/engine", "internal/shard", "internal/frag"} {
		pkgs, err := parser.ParseDir(fset, filepath.Join(root, dir), func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkgs) == 0 {
			t.Fatalf("%s: no package found", dir)
		}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				for _, imp := range file.Imports {
					if imp.Path.Value == `"sync/atomic"` {
						t.Errorf("%s: sync/atomic imported in a single-owner package", fset.Position(imp.Pos()))
					}
				}
				ast.Inspect(file, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "sync" &&
						(sel.Sel.Name == "Mutex" || sel.Sel.Name == "RWMutex") {
						t.Errorf("%s: sync.%s in a single-owner package", fset.Position(sel.Pos()), sel.Sel.Name)
					}
					return true
				})
			}
		}
	}
}

// TestAtomicsAreTyped pins that shared words are typed sync/atomic values
// (atomic.Uint64 and friends): no non-test file in the module calls a
// package-level sync/atomic function such as atomic.AddUint64(&x, 1). A
// typed value cannot be read or written plainly, and go vet's copylocks
// rejects copying one, so the compiler guards what a plain uint64 handed
// to atomic functions would leave to review.
func TestAtomicsAreTyped(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, pkg := range modulePackages(t, root) {
		dir := filepath.Join(root, strings.TrimPrefix(pkg, "tcpdemux"))
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkgs {
			for _, file := range p.Files {
				local := ""
				for _, imp := range file.Imports {
					if imp.Path.Value == `"sync/atomic"` {
						local = "atomic"
						if imp.Name != nil {
							local = imp.Name.Name
						}
					}
				}
				if local == "" {
					continue
				}
				ast.Inspect(file, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
						if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
							t.Errorf("%s: atomic.%s call; use a typed sync/atomic value", fset.Position(call.Pos()), sel.Sel.Name)
						}
					}
					return true
				})
			}
		}
	}
}
