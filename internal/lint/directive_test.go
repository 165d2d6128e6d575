package lint

import (
	"go/ast"
	"reflect"
	"strings"
	"testing"
)

// TestParseDirective is the table-driven grammar test: every accepted
// shape decodes to the right fields, and every malformed shape is
// recorded with a parse error — never silently dropped, never silently
// accepted.
func TestParseDirective(t *testing.T) {
	cases := []struct {
		text   string
		skip   bool // not a directive at all
		name   string
		args   []string
		kv     map[string]string
		reason string
		errSub string // non-empty: expect a parse error containing this
	}{
		{text: "// an ordinary comment", skip: true},
		{text: "//go:build race", skip: true},
		{text: "//demux:hotpath", name: "hotpath"},
		{text: "//demux:wallclock throughput timing is the one legit consumer", name: "wallclock", reason: "throughput timing is the one legit consumer"},
		{text: "//demux:singlewriter(owner=localtier)", name: "singlewriter", kv: map[string]string{"owner": "localtier"}},
		{text: "//demux:singlewriter(flush, owner=drain)", name: "singlewriter", args: []string{"flush"}, kv: map[string]string{"owner": "drain"}},
		{text: "//demux:owner(flush, drain) both tiers", name: "owner", args: []string{"flush", "drain"}, reason: "both tiers"},

		{text: "//demux:", name: "", errSub: "missing directive name"},
		{text: "//demux:Hotpath", name: "", errSub: "missing directive name"},
		{text: "//demux:owner(unclosed", name: "owner", errSub: "unclosed"},
		{text: "//demux:singlewriter(owner=)", name: "singlewriter", errSub: "bad value"},
		{text: "//demux:singlewriter(, owner=a)", name: "singlewriter", errSub: "empty argument"},
		{text: "//demux:singlewriter(owner=1x)", name: "singlewriter", errSub: "bad value"},
		{text: "//demux:singlewriter(owner=a, owner=b)", name: "singlewriter", errSub: "duplicate key"},
		{text: "//demux:owner(9bad)", name: "owner", errSub: "bad positional argument"},
		{text: "//demux:singlewriter(own er=x)", name: "singlewriter", errSub: "bad argument key"},
		{text: "//demux:hotpath?junk", name: "hotpath", errSub: "unexpected"},
	}
	for _, c := range cases {
		d, ok := parseDirective(&ast.Comment{Text: c.text})
		if c.skip {
			if ok {
				t.Errorf("parseDirective(%q) = %+v, want not-a-directive", c.text, d)
			}
			continue
		}
		if !ok {
			t.Errorf("parseDirective(%q): not recognized as a directive", c.text)
			continue
		}
		if c.errSub != "" {
			if d.err == "" || !strings.Contains(d.err, c.errSub) {
				t.Errorf("parseDirective(%q).err = %q, want containing %q", c.text, d.err, c.errSub)
			}
			continue
		}
		if d.err != "" {
			t.Errorf("parseDirective(%q): unexpected error %q", c.text, d.err)
			continue
		}
		if d.name != c.name || d.reason != c.reason ||
			!reflect.DeepEqual(d.args, c.args) ||
			!(len(d.kv) == 0 && len(c.kv) == 0 || reflect.DeepEqual(d.kv, c.kv)) {
			t.Errorf("parseDirective(%q) = {name:%q args:%v kv:%v reason:%q}, want {name:%q args:%v kv:%v reason:%q}",
				c.text, d.name, d.args, d.kv, d.reason, c.name, c.args, c.kv, c.reason)
		}
	}
}

// TestDirectiveFixture runs the grammar analyzer over dirbad: every
// malformed or misused directive draws a diagnostic at its comment.
func TestDirectiveFixture(t *testing.T) {
	p := loadFixture(t, "dirbad")
	diags, err := Run(p, []*Analyzer{Directive()})
	if err != nil {
		t.Fatal(err)
	}
	const f = "dirbad.go"
	line := func(needle string) int { return fixtureLine(t, "dirbad", f, needle) }
	assertDiags(t, diags, []diagWant{
		{line("//demux:singlewritr"), "directive", "unknown directive //demux:singlewritr"},
		{line("extra=y"), "directive", "exactly one role"},
		{line("//demux:singlewriter(unclosed"), "directive", "unclosed"},
		{line("owner=1x"), "directive", "bad value"},
		{line("g uint64 //demux:"), "directive", "missing directive name"},
		{line("h uint64 //demux:singlewriter"), "directive", "duplicate //demux:singlewriter on one field"},
		{line("//demux:owner"), "directive", "one or more positional roles"},
		{line("//demux:hotpath(fast)"), "directive", "takes no arguments"},
	})
}
