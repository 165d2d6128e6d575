// The frontend's application layer: a newline-framed TPC/A transaction
// protocol served over the engine's byte streams. One request debits or
// credits an account and touches its teller and branch totals — the
// paper's TPC/A workload made wire-real:
//
//	request:  TXN <branch> <teller> <account> <delta>\n
//	response: OK <account> <accountBal> <tellerBal> <branchBal>\n
//	          ERR <reason>\n
//
// Every id is a decimal uint32 and delta a decimal int64. Responses are
// fully deterministic given the sequence of requests touching the same
// ids: balances start at InitialBalance(id) and accumulate deltas. A
// load generator that keeps its ids private to one connection can
// therefore predict — and verify byte-for-byte — every response without
// coordinating with other connections, while the server itself is
// oblivious to that partitioning and serializes all transactions through
// one ledger, exactly as a real TPC/A system would.
package server

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// ServicePort is the TPC/A service's port inside the synthetic stack,
// matching internal/tpca's server endpoint. Real clients connect to the
// kernel listener; the frontend bridges them to this port.
const ServicePort = 1521

// MaxLineLen bounds one request line (newline included). A connection
// that exceeds it without producing a newline is violating the protocol
// and is shed rather than allowed to grow an unbounded reassembly
// buffer.
const MaxLineLen = 256

// Req is one parsed TPC/A transaction request.
type Req struct {
	Branch  uint32
	Teller  uint32
	Account uint32
	Delta   int64
}

// InitialBalance is the deterministic opening balance of any account,
// teller, or branch id — a Knuth-multiplicative spread so balances look
// varied without any per-id state existing before its first transaction.
func InitialBalance(id uint32) int64 {
	return int64(uint64(id) * 2654435761 % 1_000_000)
}

// The longest lines the formatters can produce: the fixed words and
// separators plus a uint32 (10 digits) or int64 (sign and 19 digits) per
// field. Each line is built in a buffer of this size on the formatter's
// stack and returned as one exactly-sized allocation.
const (
	maxRequestLen  = len("TXN ") + 3*(10+1) + 20 + 1
	maxResponseLen = len("OK ") + 10 + 3*(1+20) + 1
)

// FormatRequest renders one request line, newline included.
func FormatRequest(branch, teller, account uint32, delta int64) []byte {
	var buf [maxRequestLen]byte
	b := append(buf[:0], "TXN "...)
	b = strconv.AppendUint(b, uint64(branch), 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(teller), 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(account), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, delta, 10)
	b = append(b, '\n')
	return append([]byte(nil), b...)
}

// FormatResponse renders the success response line, newline included.
func FormatResponse(account uint32, accountBal, tellerBal, branchBal int64) []byte {
	var buf [maxResponseLen]byte
	b := append(buf[:0], "OK "...)
	b = strconv.AppendUint(b, uint64(account), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, accountBal, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, tellerBal, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, branchBal, 10)
	b = append(b, '\n')
	return append([]byte(nil), b...)
}

// FormatError renders the error response line, newline included.
func FormatError(reason string) []byte {
	return []byte("ERR " + reason + "\n")
}

// ParseRequest parses one request line (no trailing newline): exactly
// five fields separated by white space (what bytes.Fields splits on), the
// word TXN, three decimal uint32 ids with no sign, and a decimal int64
// delta with an optional sign. A well-formed line is scanned in place and
// costs no allocation; the error texts, which go to the client in the ERR
// line, are built only on rejection.
func ParseRequest(line []byte) (Req, error) {
	var f [5][]byte
	rest := line
	for i := range f {
		f[i], rest = nextField(rest)
	}
	if extra, _ := nextField(rest); f[4] == nil || extra != nil || string(f[0]) != "TXN" {
		return Req{}, fmt.Errorf("want TXN <branch> <teller> <account> <delta>, got %d field(s)", len(bytes.Fields(line)))
	}
	var ids [3]uint32
	for i := range ids {
		v, ok := parseUint(f[i+1], math.MaxUint32)
		if !ok {
			return Req{}, fmt.Errorf("bad id %q", f[i+1])
		}
		ids[i] = uint32(v)
	}
	delta, ok := parseInt64(f[4])
	if !ok {
		return Req{}, fmt.Errorf("bad delta %q", f[4])
	}
	return Req{Branch: ids[0], Teller: ids[1], Account: ids[2], Delta: delta}, nil
}

// nextField returns the first white-space-delimited field of b and what
// follows it, or nil when b holds no field. White space is Unicode's, as
// for bytes.Fields: a byte below 0x80 by comparison, anything else by
// decoding the rune (an invalid encoding is one non-space byte).
func nextField(b []byte) (field, rest []byte) {
	i := 0
	for i < len(b) { // to the field's first byte
		c, n := b[i], 1
		if c != ' ' {
			if c < utf8.RuneSelf {
				if c-'\t' >= 5 { // not \t \n \v \f \r
					break
				}
			} else if r, size := utf8.DecodeRune(b[i:]); unicode.IsSpace(r) {
				n = size
			} else {
				break
			}
		}
		i += n
	}
	if i == len(b) {
		return nil, nil
	}
	start := i
	for i < len(b) { // past its last
		c, n := b[i], 1
		if c <= ' ' {
			if c == ' ' || c-'\t' < 5 {
				break
			}
		} else if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRune(b[i:])
			if unicode.IsSpace(r) {
				break
			}
			n = size
		}
		i += n
	}
	return b[start:i:i], b[i:]
}

// parseUint reads an unsigned decimal of one or more digits, nothing
// else, at most max: what strconv.ParseUint accepts in base 10.
func parseUint(b []byte, max uint64) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var v uint64
	tenth := max / 10
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		if v > tenth {
			return 0, false // v*10 alone is over max; it could also wrap
		}
		if v = v*10 + uint64(c-'0'); v > max {
			return 0, false
		}
	}
	return v, true
}

// parseInt64 reads a decimal int64 with an optional single sign: what
// strconv.ParseInt accepts in base 10.
func parseInt64(b []byte) (int64, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		b = b[1:]
	}
	max := uint64(math.MaxInt64)
	if neg {
		max++ // the magnitude of MinInt64
	}
	v, ok := parseUint(b, max)
	if neg {
		return -int64(v), ok // -int64(1<<63) is MinInt64
	}
	return int64(v), ok
}

// Ledger is the TPC/A balance state: accounts, tellers, and branches,
// each id's balance materialized at first touch from InitialBalance.
// It has no internal locking — the server applies every transaction from
// its engine-loop goroutine, and a load generator's private ledger is
// confined to its worker.
type Ledger struct {
	accounts map[uint32]int64
	tellers  map[uint32]int64
	branches map[uint32]int64
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{
		accounts: make(map[uint32]int64),
		tellers:  make(map[uint32]int64),
		branches: make(map[uint32]int64),
	}
}

func touch(m map[uint32]int64, id uint32, delta int64) int64 {
	bal, ok := m[id]
	if !ok {
		bal = InitialBalance(id)
	}
	bal += delta
	m[id] = bal
	return bal
}

// Apply commits one transaction and returns the resulting balances.
func (l *Ledger) Apply(r Req) (accountBal, tellerBal, branchBal int64) {
	accountBal = touch(l.accounts, r.Account, r.Delta)
	tellerBal = touch(l.tellers, r.Teller, r.Delta)
	branchBal = touch(l.branches, r.Branch, r.Delta)
	return
}

// Expected computes the response a request must produce against this
// ledger — Apply plus FormatResponse, the load generator's oracle.
func (l *Ledger) Expected(r Req) []byte {
	a, t, b := l.Apply(r)
	return FormatResponse(r.Account, a, t, b)
}

// Size returns the number of distinct account ids touched.
func (l *Ledger) Size() int { return len(l.accounts) }
