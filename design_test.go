package tcpdemux

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// designCitation matches one backquoted holder on a DESIGN.md `Held by:`
// line: a Test, Benchmark or Fuzz function, or a golden file.
var designCitation = regexp.MustCompile("`((?:Test|Benchmark|Fuzz)\\w*|testdata/golden/[\\w.-]+)`")

// heldByCitations returns the holders each `Held by:` citation in doc
// names, keyed by the citation's line number. A citation runs from
// `Held by:` to the first line that ends in a period or precedes a blank
// line.
func heldByCitations(doc string) map[int][]string {
	lines := strings.Split(doc, "\n")
	out := map[int][]string{}
	for i := 0; i < len(lines); i++ {
		at := strings.Index(lines[i], "Held by:")
		if at < 0 {
			continue
		}
		start, text := i+1, lines[i][at:]
		for !strings.HasSuffix(strings.TrimSpace(lines[i]), ".") && i+1 < len(lines) && strings.TrimSpace(lines[i+1]) != "" {
			i++
			text += " " + lines[i]
		}
		out[start] = nil
		for _, m := range designCitation.FindAllStringSubmatch(text, -1) {
			out[start] = append(out[start], m[1])
		}
	}
	return out
}

// testFuncs returns the name of every top-level function declared in a
// _test.go file under root.
func testFuncs(t *testing.T, root string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && p != root && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
			return filepath.SkipDir
		}
		if e.IsDir() || !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				names[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestDesignClaimsCited holds DESIGN.md's `Held by:` citations: every
// test, benchmark, fuzz target or golden file a citation names must exist,
// and every citation must name at least one.
func TestDesignClaimsCited(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	cites := heldByCitations(string(doc))
	if len(cites) == 0 {
		t.Fatal("DESIGN.md has no Held by: citation")
	}
	funcs := testFuncs(t, ".")
	for line, holders := range cites {
		if len(holders) == 0 {
			t.Errorf("DESIGN.md:%d: Held by: names no test, benchmark, fuzz target or golden", line)
		}
		for _, h := range holders {
			if strings.HasPrefix(h, "testdata/") {
				if _, err := os.Stat(h); err != nil {
					t.Errorf("DESIGN.md:%d cites %s, which does not exist", line, h)
				}
			} else if !funcs[h] {
				t.Errorf("DESIGN.md:%d cites %s, which no _test.go file declares", line, h)
			}
		}
	}
}
