package main

import (
	"strconv"

	"tcpdemux/internal/server"
)

// accountsPer is how many accounts each resident terminal draws from.
const accountsPer = 8

// terminal is one resident connection's private slice of the TPC/A
// ledger. Its branch, teller and account ids belong to no other
// terminal, so the balances the server must answer with are this plain
// arithmetic whatever order the server serves connections in. The
// formatting is the harness's own so that a change to internal/server's
// protocol code cannot speed the oracle up; oracle_test.go proves it
// equal to server.Ledger.Expected.
type terminal struct {
	slot    uint32
	account [accountsPer]int64
	teller  int64
	branch  int64
}

func newTerminal(slot int) terminal {
	t := terminal{slot: uint32(slot)}
	t.teller = server.InitialBalance(t.slot)
	t.branch = t.teller
	for k := range t.account {
		t.account[k] = server.InitialBalance(t.slot*accountsPer + uint32(k))
	}
	return t
}

// next appends one request line to req and the response the server must
// give to want, and commits the delta to the terminal's balances.
func (t *terminal) next(req, want []byte, k int, delta int64) (r, w []byte) {
	id := uint64(t.slot)
	acct := id*accountsPer + uint64(k)
	req = append(req, "TXN "...)
	req = strconv.AppendUint(req, id, 10)
	req = append(req, ' ')
	req = strconv.AppendUint(req, id, 10)
	req = append(req, ' ')
	req = strconv.AppendUint(req, acct, 10)
	req = append(req, ' ')
	req = strconv.AppendInt(req, delta, 10)
	req = append(req, '\n')

	t.account[k] += delta
	t.teller += delta
	t.branch += delta
	want = append(want, "OK "...)
	want = strconv.AppendUint(want, acct, 10)
	want = append(want, ' ')
	want = strconv.AppendInt(want, t.account[k], 10)
	want = append(want, ' ')
	want = strconv.AppendInt(want, t.teller, 10)
	want = append(want, ' ')
	want = strconv.AppendInt(want, t.branch, 10)
	want = append(want, '\n')
	return req, want
}
