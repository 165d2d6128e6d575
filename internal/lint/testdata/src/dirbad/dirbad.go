// Package dirbad holds malformed and misused //demux: directives. Each
// must draw a diagnostic from the directive analyzer at the comment —
// never a silent no-op, because the contract analyzers treat malformed
// directives as absent. The expectations live in directive_test.go
// because the diagnostics land on the directive comments themselves.
package dirbad

type s struct {
	a uint64 //demux:atomic(foo)
	b uint64 //demux:atomik
	c uint64 //demux:singlewriter(owner=x, extra=y)
	e uint64 //demux:atomic(unclosed
	f uint64 //demux:singlewriter(owner=1x)
	g uint64 //demux:

	// h is doubly marked; only the doc-comment copy is consulted.
	//demux:atomic
	h uint64 //demux:atomic

	ok uint64 //demux:atomic
}

//demux:owner
func orphanRole() {}

//demux:hotpath(fast)
func arged() {}
