package main

import "testing"

// TestRunsAtItsDefaults runs the example exactly as `go run ./examples/oltp`
// does: 200 terminals connect at once, which once overran the listener's
// default backlog of 128 and made the example exit 1 at its own defaults.
func TestRunsAtItsDefaults(t *testing.T) {
	for _, algo := range []string{"bsd", "sequent"} {
		if err := runBank(algo, defaultTerminals, defaultTxns); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
	}
}
