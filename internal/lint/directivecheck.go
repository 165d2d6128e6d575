package lint

import (
	"go/ast"
	"sort"
	"strings"
)

// Directive returns the directive analyzer, the grammar gate for every
// //demux: comment. The rest of the suite treats a malformed directive as
// absent — a misspelled marker must not half-enable a check, and a
// malformed waiver must not suppress anything — so without this analyzer
// a typo would silently disable a contract. Here every //demux: comment
// is validated against the grammar in directive.go and the per-directive
// argument rules:
//
//	hotpath               no arguments
//	waivers               no arguments; free-text reason after the name
//	singlewriter          exactly one role: (owner=role) or (role)
//	owner                 one or more positional roles: (role, ...)
//
// Unknown directive names, parse errors (unclosed parens, bad identifier
// syntax, duplicate keys), and duplicate same-name directives on one line
// are all reported at the comment. There is no waiver: the fix for a bad
// directive is to write it correctly.
func Directive() *Analyzer {
	a := &Analyzer{
		Name: "directive",
		Doc:  "validate //demux: comments against the annotation grammar",
	}
	a.Run = func(pass *Pass) error {
		for _, d := range pass.dirs.all {
			checkDirective(pass, d)
		}
		reportFieldDuplicates(pass)
		return nil
	}
	return a
}

// checkDirective validates one parsed directive's name and arguments.
func checkDirective(pass *Pass, d *directive) {
	if d.err != "" {
		pass.Reportf(d.pos, "malformed //demux:%s directive: %s", d.name, d.err)
		return
	}
	_, isWaiver := waiverNames[d.name]
	if !isWaiver && !markerNames[d.name] {
		pass.Reportf(d.pos, "unknown directive //demux:%s (markers: %s; waivers: %s)", d.name, nameList(markerNames), nameList(waiverKeys()))
		return
	}
	nArgs := len(d.args) + len(d.kv)
	switch {
	case isWaiver, d.name == "hotpath":
		if nArgs > 0 {
			pass.Reportf(d.pos, "//demux:%s takes no arguments", d.name)
		}
	case d.name == "singlewriter":
		_, hasOwner := d.kv["owner"]
		ok := (hasOwner && len(d.kv) == 1 && len(d.args) == 0) ||
			(len(d.kv) == 0 && len(d.args) == 1)
		if !ok {
			pass.Reportf(d.pos, "//demux:singlewriter needs exactly one role: (owner=role) or (role)")
		}
	case d.name == "owner":
		if len(d.args) == 0 || len(d.kv) > 0 {
			pass.Reportf(d.pos, "//demux:owner needs one or more positional roles: (role, ...)")
		}
	}
}

// reportFieldDuplicates flags the same marker appearing twice on one
// struct field — once in its doc comment and once trailing — where the
// copies sit on different lines and escape reportDuplicates. Only the
// doc-comment copy is consulted (fieldDirective checks Doc first), so the
// trailing one is dead and its arguments, if different, are a trap.
func reportFieldDuplicates(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				seen := make(map[string]bool)
				for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
					if cg == nil {
						continue
					}
					for _, c := range cg.List {
						d, ok := parseDirective(c)
						if !ok || d.err != "" || !markerNames[d.name] {
							continue
						}
						if seen[d.name] {
							pass.Reportf(d.pos, "duplicate //demux:%s on one field; the doc-comment copy wins and this one is ignored", d.name)
							continue
						}
						seen[d.name] = true
					}
				}
			}
			return true
		})
	}
}

// nameList renders a directive-name set as a stable comma list.
func nameList(m map[string]bool) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// waiverKeys adapts waiverNames' keys to nameList's input shape.
func waiverKeys() map[string]bool {
	out := make(map[string]bool, len(waiverNames))
	//demux:orderinvariant building a set; nameList sorts before rendering
	for n := range waiverNames {
		out[n] = true
	}
	return out
}
