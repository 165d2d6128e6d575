// Command demuxvet runs the repository's invariant analyzers
// (internal/lint): directive, virtualtime, seededrand, mapiter,
// singlewriter, hotalloc, and stalewaiver. It speaks two protocols:
//
//	demuxvet ./...                   standalone: walk packages, parse and
//	                                 type-check from source, report.
//	go vet -vettool=$(pwd)/bin/demuxvet ./...
//	                                 unitchecker: the go command invokes
//	                                 the tool once per package with a JSON
//	                                 config file naming sources and export
//	                                 data, exactly like golang.org/x/tools'
//	                                 unitchecker — reimplemented here on
//	                                 the stdlib because the module vendors
//	                                 no dependencies.
//
// Every package in the module is in scope, examples/ included — the
// example programs must obey the same determinism rules as everything
// else. *_test.go files are never analyzed: tests legitimately read the
// wall clock and iterate maps.
//
// The -tags flag (standalone mode) adds build tags to the constraint
// evaluation, mirroring `go build -tags`; `demuxvet -tags race ./...`
// analyzes the file set a -race build compiles.
//
// Exit status: 0 clean, 1 usage or load failure, 2 diagnostics reported.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tcpdemux/internal/lint"
)

// selfID hashes the running executable to stand in for a build ID.
func selfID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

var (
	jsonFlag  = flag.Bool("json", false, "emit diagnostics as JSON (unitchecker protocol)")
	flagsFlag = flag.Bool("flags", false, "print analyzer flags in JSON (unitchecker protocol)")
	vFlag     = flag.String("V", "", "print version and exit (unitchecker protocol)")
	cFlag     = flag.Int("c", -1, "ignored; accepted for vet driver compatibility")
	fixFlag   = flag.Bool("fix", false, "ignored; demuxvet suggests no fixes")
	tagsFlag  = flag.String("tags", "", "comma-separated build tags to satisfy (standalone mode)")
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: demuxvet [packages]  |  demuxvet unit.cfg (go vet -vettool protocol)")
		flag.PrintDefaults()
	}
	flag.Parse()
	_ = *cFlag
	_ = *fixFlag
	switch {
	case *vFlag != "":
		// The go command caches vet results keyed on this line; it must
		// end in a buildID token, which we derive from the executable so
		// rebuilding the tool invalidates the cache.
		fmt.Printf("demuxvet version devel buildID=%s\n", selfID())
		os.Exit(0)
	case *flagsFlag:
		fmt.Println("[]")
		os.Exit(0)
	}
	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(unitcheck(args[0]))
	}
	os.Exit(standalone(args))
}

// ---- standalone driver ----

func standalone(patterns []string) int {
	root, module, err := findModule()
	if err != nil {
		fmt.Fprintln(os.Stderr, "demuxvet:", err)
		return 1
	}
	var tags []string
	if *tagsFlag != "" {
		tags = strings.Split(*tagsFlag, ",")
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var paths []string
	seen := make(map[string]bool)
	for _, pat := range patterns {
		expanded, err := expand(root, module, pat, tags)
		if err != nil {
			fmt.Fprintln(os.Stderr, "demuxvet:", err)
			return 1
		}
		for _, p := range expanded {
			if !seen[p] {
				seen[p] = true
				paths = append(paths, p)
			}
		}
	}
	loader := lint.NewLoader(root, module)
	loader.Tags = tags
	analyzers := lint.Default()
	found := false
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "demuxvet:", err)
			return 1
		}
		diags, err := lint.Run(pkg, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "demuxvet:", err)
			return 1
		}
		for _, d := range diags {
			found = true
			fmt.Fprintln(os.Stderr, d)
		}
	}
	if found {
		return 2
	}
	return 0
}

// findModule locates the enclosing go.mod and returns its directory and
// module path.
func findModule() (root, module string, err error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(m), nil
				}
			}
			return "", "", fmt.Errorf("%s: no module line", filepath.Join(dir, "go.mod"))
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// expand resolves one package pattern ("./...", "./internal/...", a
// directory) to import paths. Directories named testdata or bin, or
// starting with "." or "_", are skipped, as are packages with no
// non-test Go files; examples/ is in scope like everything else.
func expand(root, module, pat string, tags []string) ([]string, error) {
	pat = strings.TrimPrefix(pat, "./")
	recursive := false
	if pat == "..." {
		pat, recursive = ".", true
	} else if s, ok := strings.CutSuffix(pat, "/..."); ok {
		pat, recursive = s, true
	}
	base := filepath.Join(root, filepath.FromSlash(pat))
	if !recursive {
		ok, err := hasGoFiles(base, tags)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("no Go files in %s", base)
		}
		return []string{importPath(root, module, base)}, nil
	}
	var paths []string
	err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != base && (name == "testdata" || name == "bin" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ok, err := hasGoFiles(p, tags)
		if err != nil {
			return err
		}
		if ok {
			paths = append(paths, importPath(root, module, p))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

func hasGoFiles(dir string, tags []string) (bool, error) {
	files, err := lint.GoFiles(dir, tags...)
	return len(files) > 0, err
}

func importPath(root, module, dir string) string {
	rel, _ := filepath.Rel(root, dir)
	if rel == "." {
		return module
	}
	return module + "/" + filepath.ToSlash(rel)
}

// ---- go vet -vettool unitchecker protocol ----

// vetConfig is the JSON configuration the go command writes for each
// package it asks a vet tool to analyze (the unitchecker.Config schema).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// writeVetx writes the (empty) facts file the go command expects to
// cache; demuxvet's analyzers exchange no cross-package facts.
func (cfg *vetConfig) writeVetx() {
	if cfg.VetxOutput != "" {
		_ = os.WriteFile(cfg.VetxOutput, []byte("demuxvet.facts.v0\n"), 0o666)
	}
}

// unsafeFirst guards the "unsafe" pseudo-package in front of the gc
// export-data importer.
type unsafeFirst struct{ imp types.Importer }

func (u unsafeFirst) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return u.imp.Import(path)
}

func unitcheck(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "demuxvet:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "demuxvet: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	if cfg.VetxOnly {
		cfg.writeVetx()
		return 0
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				cfg.writeVetx()
				return 0
			}
			fmt.Fprintln(os.Stderr, "demuxvet:", err)
			return 1
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		// Nothing but test files (an external test package): nothing to
		// enforce.
		cfg.writeVetx()
		return 0
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if canon, ok := cfg.ImportMap[path]; ok {
			path = canon
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("demuxvet: no export data for %q", path)
		}
		return os.Open(file)
	}
	imp := unsafeFirst{importer.ForCompiler(fset, "gc", lookup)}
	pkg, info, err := lint.Check(cfg.ImportPath, fset, files, imp)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			cfg.writeVetx()
			return 0
		}
		fmt.Fprintln(os.Stderr, "demuxvet:", err)
		return 1
	}
	diags, err := lint.Run(&lint.Package{
		Path: cfg.ImportPath, Fset: fset, Files: files, Types: pkg, Info: info,
	}, lint.Default())
	if err != nil {
		fmt.Fprintln(os.Stderr, "demuxvet:", err)
		return 1
	}
	cfg.writeVetx()
	if *jsonFlag {
		return emitJSON(cfg.ID, diags)
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// emitJSON prints diagnostics in the unitchecker -json shape:
// {pkgID: {analyzer: [{posn, message}, ...]}}.
func emitJSON(pkgID string, diags []lint.Diagnostic) int {
	type jsonDiag struct {
		Posn    string `json:"posn"`
		Message string `json:"message"`
	}
	byAnalyzer := make(map[string][]jsonDiag)
	for _, d := range diags {
		byAnalyzer[d.Analyzer] = append(byAnalyzer[d.Analyzer], jsonDiag{
			Posn:    d.Pos.String(),
			Message: d.Message,
		})
	}
	out := map[string]map[string][]jsonDiag{pkgID: byAnalyzer}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "\t")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "demuxvet:", err)
		return 1
	}
	return 0
}
