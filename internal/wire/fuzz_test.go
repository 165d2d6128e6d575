package wire

import (
	"bytes"
	"testing"
)

// Native fuzz targets. Run as ordinary seed-corpus tests under go test;
// run with -fuzz=FuzzParseSegment for continuous fuzzing.

// FuzzParseSegment asserts that the parser agrees with the reference parser
// (reference_test.go) on result, error value and payload aliasing, and the
// parse-rebuild-reparse invariant: anything the parser accepts must rebuild
// into a frame the parser accepts again with identical header fields and
// payload.
func FuzzParseSegment(f *testing.F) {
	seed, err := BuildSegment(sampleIP(), sampleTCP(), []byte("seed payload"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x45}, 40))
	syn := sampleTCP()
	syn.Flags = FlagSYN
	syn.Options = []TCPOption{MSSOption(1460)}
	seed2, err := BuildSegment(sampleIP(), syn, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed2)
	for _, frame := range equivalenceFrames(f) {
		f.Add(frame)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var reused Segment
		checkParseEquivalent(t, &reused, data)
		if got, want := Checksum(data), refChecksum(data); got != want {
			t.Fatalf("Checksum %#04x, reference %#04x", got, want)
		}
		seg, err := ParseSegment(data)
		if err != nil {
			return // rejection is always acceptable
		}
		rebuilt, err := BuildSegment(seg.IP, seg.TCP, seg.Payload)
		if err != nil {
			t.Fatalf("accepted frame failed to rebuild: %v", err)
		}
		again, err := ParseSegment(rebuilt)
		if err != nil {
			t.Fatalf("rebuilt frame rejected: %v", err)
		}
		if again.Tuple() != seg.Tuple() {
			t.Fatalf("tuple changed: %v vs %v", again.Tuple(), seg.Tuple())
		}
		if again.TCP.Seq != seg.TCP.Seq || again.TCP.Ack != seg.TCP.Ack ||
			again.TCP.Flags != seg.TCP.Flags {
			t.Fatal("TCP header fields changed across rebuild")
		}
		if !bytes.Equal(again.Payload, seg.Payload) {
			t.Fatal("payload changed across rebuild")
		}
	})
}

// FuzzExtractTuple asserts the fast path agrees with the full parser, and
// with the reference parser, on every frame they accept.
func FuzzExtractTuple(f *testing.F) {
	seed, err := BuildSegment(sampleIP(), sampleTCP(), nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	for _, frame := range equivalenceFrames(f) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var reused Segment
		checkParseEquivalent(t, &reused, data)
		seg, err := ParseSegment(data)
		if err != nil {
			_, _ = ExtractTuple(data) // must not panic either way
			return
		}
		fast, err := ExtractTuple(data)
		if err != nil {
			t.Fatalf("fast path rejected a frame the parser accepted: %v", err)
		}
		if fast != seg.Tuple() {
			t.Fatalf("fast path tuple %v vs parsed %v", fast, seg.Tuple())
		}
	})
}
