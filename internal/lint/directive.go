package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// directivePrefix introduces every demuxvet control comment. Three kinds
// exist: markers, which opt a declaration into extra checking
// (//demux:hotpath on a function), parameterized markers, which also name
// roles (//demux:singlewriter(owner=flush) on a field, //demux:owner(flush)
// on a function), and waivers, which suppress one finding with a written
// reason (//demux:wallclock, //demux:globalrand, //demux:orderinvariant,
// //demux:allowalloc, //demux:crossaccess).
//
// Grammar:
//
//	//demux:NAME                      plain marker or waiver
//	//demux:NAME reason text          waiver with its reason
//	//demux:NAME(a, k=v, ...) reason  parameterized directive
//
// NAME is lowercase letters. Arguments are positional identifiers or
// key=identifier pairs. A directive that fails this grammar
// is not silently ignored: it is recorded with a parse error and the
// `directive` analyzer reports it at the comment.
const directivePrefix = "//demux:"

// waiverNames maps each waiver directive to the analyzer that consults
// it. stalewaiver uses the same table to report waivers no analyzer
// consumed.
var waiverNames = map[string]string{
	"wallclock":      "virtualtime",
	"globalrand":     "seededrand",
	"orderinvariant": "mapiter",
	"allowalloc":     "hotalloc",
	"crossaccess":    "singlewriter",
}

// markerNames are the directives that opt a declaration into checking
// rather than waive a finding.
var markerNames = map[string]bool{
	"hotpath":      true,
	"singlewriter": true,
	"owner":        true,
}

// A directive is one parsed //demux: comment.
type directive struct {
	name   string
	args   []string          // positional arguments inside (...)
	kv     map[string]string // key=value arguments inside (...)
	reason string            // free text after the name / argument list
	pos    token.Pos
	err    string // non-empty: malformed; reported by the directive analyzer
	used   bool   // set when an analyzer consumed this directive as a waiver
}

// arg returns the directive's single role-ish argument: kv[key] if
// present, else the first positional argument.
func (d *directive) arg(key string) string {
	if v, ok := d.kv[key]; ok {
		return v
	}
	if len(d.args) > 0 {
		return d.args[0]
	}
	return ""
}

// directives indexes a package's demux directives by file and line so
// analyzers can ask "is this node waived?" in O(1), and keeps the full
// list in source order for the directive and stalewaiver analyzers.
type directives struct {
	byLine map[string]map[int][]*directive
	all    []*directive
}

// parseDirectives scans every comment of every file for demux directives.
func parseDirectives(fset *token.FileSet, files []*ast.File) *directives {
	d := &directives{byLine: make(map[string]map[int][]*directive)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				dir, ok := parseDirective(c)
				if !ok {
					continue
				}
				p := fset.Position(c.Pos())
				m := d.byLine[p.Filename]
				if m == nil {
					m = make(map[int][]*directive)
					d.byLine[p.Filename] = m
				}
				m[p.Line] = append(m[p.Line], dir)
				d.all = append(d.all, dir)
			}
		}
	}
	return d
}

// isIdent reports whether s is a plain identifier ([A-Za-z_][A-Za-z0-9_]*).
func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r == '_', 'a' <= r && r <= 'z', 'A' <= r && r <= 'Z':
		case '0' <= r && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// parseDirective decodes one comment as a demux directive. A comment
// carrying the //demux: prefix always yields a directive; grammar
// violations are recorded in err rather than dropped, so a typo cannot
// silently disable a contract.
func parseDirective(c *ast.Comment) (*directive, bool) {
	text, ok := strings.CutPrefix(c.Text, directivePrefix)
	if !ok {
		return nil, false
	}
	d := &directive{pos: c.Pos()}
	i := 0
	for i < len(text) && 'a' <= text[i] && text[i] <= 'z' {
		i++
	}
	d.name, text = text[:i], text[i:]
	if d.name == "" {
		d.err = "missing directive name after //demux:"
		return d, true
	}
	if strings.HasPrefix(text, "(") {
		close := strings.IndexByte(text, ')')
		if close < 0 {
			d.err = "unclosed '(' in argument list"
			return d, true
		}
		if err := d.parseArgs(text[1:close]); err != "" {
			d.err = err
			return d, true
		}
		text = text[close+1:]
	}
	if text != "" && text[0] != ' ' && text[0] != '\t' {
		d.err = fmt.Sprintf("unexpected %q after directive name", text[:1])
		return d, true
	}
	d.reason = strings.TrimSpace(text)
	return d, true
}

// parseArgs decodes the comma-separated argument list between parens.
func (d *directive) parseArgs(inner string) string {
	for _, item := range strings.Split(inner, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			return "empty argument in list"
		}
		if k, v, ok := strings.Cut(item, "="); ok {
			k, v = strings.TrimSpace(k), strings.TrimSpace(v)
			if !isIdent(k) {
				return fmt.Sprintf("bad argument key %q", k)
			}
			if !isIdent(v) {
				return fmt.Sprintf("bad value %q for key %q (want an identifier)", v, k)
			}
			if d.kv == nil {
				d.kv = make(map[string]string)
			}
			if _, dup := d.kv[k]; dup {
				return fmt.Sprintf("duplicate key %q", k)
			}
			d.kv[k] = v
		} else {
			if !isIdent(item) {
				return fmt.Sprintf("bad positional argument %q", item)
			}
			d.args = append(d.args, item)
		}
	}
	return ""
}

// at returns the directive of the given name covering pos: on pos's own
// line (a trailing comment) or on the line immediately above it.
// Malformed directives never match — a waiver with a grammar error
// suppresses nothing (and is reported by the directive analyzer).
func (d *directives) at(pos token.Position, name string) *directive {
	m := d.byLine[pos.Filename]
	if m == nil {
		return nil
	}
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		for _, dir := range m[line] {
			if dir.name == name && dir.err == "" {
				return dir
			}
		}
	}
	return nil
}

// commentGroupDirective returns the first well-formed directive of the
// given name in the group, or nil. Used for markers attached to
// declarations, where the directive may be any line of the doc comment.
func commentGroupDirective(cg *ast.CommentGroup, name string) *directive {
	if cg == nil {
		return nil
	}
	for _, c := range cg.List {
		if dir, ok := parseDirective(c); ok && dir.name == name && dir.err == "" {
			return dir
		}
	}
	return nil
}

// fieldDirective returns the named marker on a struct field, from its doc
// comment or its trailing comment.
func fieldDirective(f *ast.Field, name string) *directive {
	if d := commentGroupDirective(f.Doc, name); d != nil {
		return d
	}
	return commentGroupDirective(f.Comment, name)
}

// funcIsHotpath reports whether fn carries the //demux:hotpath marker.
func funcIsHotpath(fn *ast.FuncDecl) bool {
	return commentGroupDirective(fn.Doc, "hotpath") != nil
}
