package server

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"testing"
)

// The fmt/bytes.Fields/strconv codec the in-place one replaced, kept as the
// reference: the shipped codec must accept and reject exactly the same
// lines, with the same values, error texts (they reach the client in the
// ERR line) and bytes.

func refFormatRequest(branch, teller, account uint32, delta int64) []byte {
	return []byte(fmt.Sprintf("TXN %d %d %d %d\n", branch, teller, account, delta))
}

func refFormatResponse(account uint32, accountBal, tellerBal, branchBal int64) []byte {
	return []byte(fmt.Sprintf("OK %d %d %d %d\n", account, accountBal, tellerBal, branchBal))
}

func refParseRequest(line []byte) (Req, error) {
	fields := bytes.Fields(line)
	if len(fields) != 5 || !bytes.Equal(fields[0], []byte("TXN")) {
		return Req{}, fmt.Errorf("want TXN <branch> <teller> <account> <delta>, got %d field(s)", len(fields))
	}
	ids := make([]uint32, 3)
	for i := 0; i < 3; i++ {
		v, err := strconv.ParseUint(string(fields[i+1]), 10, 32)
		if err != nil {
			return Req{}, fmt.Errorf("bad id %q", fields[i+1])
		}
		ids[i] = uint32(v)
	}
	delta, err := strconv.ParseInt(string(fields[4]), 10, 64)
	if err != nil {
		return Req{}, fmt.Errorf("bad delta %q", fields[4])
	}
	return Req{Branch: ids[0], Teller: ids[1], Account: ids[2], Delta: delta}, nil
}

func checkParseMatchesReference(t *testing.T, line []byte) {
	t.Helper()
	got, err := ParseRequest(line)
	want, wantErr := refParseRequest(line)
	if got != want || (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("ParseRequest(%q) = %+v, %v; reference %+v, %v", line, got, err, want, wantErr)
	}
}

// codecLines are the request lines the table test runs and the fuzz
// target starts from.
var codecLines = []string{
	"TXN 3 7 42 -250", "TXN 0 0 0 0", "TXN 4294967295 4294967295 4294967295 9223372036854775807",
	"TXN 1 2 3 -9223372036854775808", "TXN 1 2 3 +5", "TXN 1 2 3 -0", "TXN 0001 02 000000000000000000003 0004",
	// blanks: leading, trailing, runs, every ASCII kind, three of Unicode's
	// (NEL, NBSP, ideographic space), and bytes that only look like them
	" TXN 1 2 3 4", "TXN 1 2 3 4 ", "TXN  1   2 \t3\v\f\r4", "\nTXN 1 2 3 4\n", "TXN 1\u00852\u00a03\u30004",
	"TXN 1 2 3 4\xa0", "TXN 1 2 3 4\xc2", "\xff TXN 1 2 3 4", "TXN 1 2 3 4 \xff", "TXN 1 2 3 4\xe3\x80",
	// field counts
	"", " ", "TXN", "TXN 1 2 3", "TXN 1 2 3 4 5", "TXN 1 2 3 4 5 6", "GET 1 2 3 4", "TXN1 2 3 4 5", "txn 1 2 3 4",
	// signs and junk in ids and delta
	"TXN +1 2 3 4", "TXN -1 2 3 4", "TXN 1 -2 3 4", "TXN 1 2 +3 4", "TXN x 2 3 4", "TXN 1 2 3 nope", "TXN 1 2 3 --4",
	"TXN 1 2 3 +-4", "TXN 1 2 3 +", "TXN 1 2 3 -", "TXN 1 2 3 4.0", "TXN 1 2 3 0x10", "TXN 1_0 2 3 4", "TXN 1 2 3 1_0",
	"TXN \u0661 2 3 4",
	// overflow: one past each limit, and long enough to wrap a uint64
	"TXN 4294967296 2 3 4", "TXN 1 2 42949672950 4", "TXN 1 2 3 9223372036854775808", "TXN 1 2 3 -9223372036854775809",
	"TXN 1 2 3 18446744073709551616", "TXN 1 2 3 -92233720368547758080", "TXN 99999999999999999999999999 2 3 4",
	"TXN 1 2 3 184467440737095516150", "TXN 1 2 3 -184467440737095516160",
}

func TestParseRequestMatchesReference(t *testing.T) {
	for _, line := range codecLines {
		checkParseMatchesReference(t, []byte(line))
	}
}

func TestFormatMatchesReference(t *testing.T) {
	ids := []uint32{0, 1, 9, 10, 42, 999999, 4294967295}
	vals := []int64{0, 1, -1, 9, -10, 999, 1_000_000, -250, math.MaxInt64, math.MinInt64}
	for i, id := range ids {
		for j, v := range vals {
			a, b, c := ids[(i+1)%len(ids)], ids[(i+2)%len(ids)], vals[(j+3)%len(vals)]
			if got, want := FormatRequest(id, a, b, v), refFormatRequest(id, a, b, v); !bytes.Equal(got, want) {
				t.Fatalf("FormatRequest = %q, reference %q", got, want)
			}
			if got, want := FormatResponse(id, v, c, -v), refFormatResponse(id, v, c, -v); !bytes.Equal(got, want) {
				t.Fatalf("FormatResponse = %q, reference %q", got, want)
			}
		}
	}
	if got := len(FormatRequest(4294967295, 4294967295, 4294967295, math.MinInt64)); got != maxRequestLen {
		t.Fatalf("longest request is %d bytes, maxRequestLen %d", got, maxRequestLen)
	}
	if got := len(FormatResponse(4294967295, math.MinInt64, math.MinInt64, math.MinInt64)); got != maxResponseLen {
		t.Fatalf("longest response is %d bytes, maxResponseLen %d", got, maxResponseLen)
	}
}

// FuzzProtocolCodec holds the parser to the reference on arbitrary lines,
// and both formatters to theirs (and to the parser) on arbitrary values.
func FuzzProtocolCodec(f *testing.F) {
	for _, line := range codecLines {
		f.Add([]byte(line), uint32(len(line)), int64(len(line))-20)
	}
	f.Fuzz(func(t *testing.T, line []byte, id uint32, v int64) {
		checkParseMatchesReference(t, line)
		req := FormatRequest(id, id+1, id^0xffff, v)
		if want := refFormatRequest(id, id+1, id^0xffff, v); !bytes.Equal(req, want) {
			t.Fatalf("FormatRequest = %q, reference %q", req, want)
		}
		if got, want := FormatResponse(id, v, -v, v/3), refFormatResponse(id, v, -v, v/3); !bytes.Equal(got, want) {
			t.Fatalf("FormatResponse = %q, reference %q", got, want)
		}
		parsed, err := ParseRequest(req[:len(req)-1])
		if err != nil || parsed != (Req{Branch: id, Teller: id + 1, Account: id ^ 0xffff, Delta: v}) {
			t.Fatalf("ParseRequest(%q) = %+v, %v", req, parsed, err)
		}
	})
}

// TestCodecAllocations: a well-formed request parses in place, and a
// formatted line is its call's one allocation.
func TestCodecAllocations(t *testing.T) {
	line := []byte("TXN 17 17 1360 -250")
	if n := testing.AllocsPerRun(200, func() {
		if _, err := ParseRequest(line); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ParseRequest allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { FormatResponse(1360, 123456, -250, 99) }); n != 1 {
		t.Fatalf("FormatResponse allocates %v times, want 1", n)
	}
	if n := testing.AllocsPerRun(200, func() { FormatRequest(17, 17, 1360, -250) }); n != 1 {
		t.Fatalf("FormatRequest allocates %v times, want 1", n)
	}
}

func BenchmarkParseRequest(b *testing.B) {
	line := []byte("TXN 1733 1733 13864 -250")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseRequest(line); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFormatResponse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FormatResponse(13864, 123456+int64(i), -250, 99)
	}
}

func BenchmarkLedgerApply(b *testing.B) {
	l := NewLedger()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Apply(Req{Branch: uint32(i % 6000), Teller: uint32(i % 6000), Account: uint32(i % 48000), Delta: 5})
	}
}
