// Package dirbad holds malformed and misused //demux: directives. Each
// must draw a diagnostic from the directive analyzer at the comment —
// never a silent no-op, because the contract analyzers treat malformed
// directives as absent. The expectations live in directive_test.go
// because the diagnostics land on the directive comments themselves.
package dirbad

type s struct {
	b uint64 //demux:singlewritr(owner=x)
	c uint64 //demux:singlewriter(owner=x, extra=y)
	e uint64 //demux:singlewriter(unclosed
	f uint64 //demux:singlewriter(owner=1x)
	g uint64 //demux:

	// h is doubly marked; only the doc-comment copy is consulted.
	//demux:singlewriter(owner=x)
	h uint64 //demux:singlewriter(owner=y)

	ok uint64 //demux:singlewriter(owner=x)
}

//demux:owner
func orphanRole() {}

//demux:hotpath(fast)
func arged() {}
