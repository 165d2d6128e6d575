package wire

import (
	"bytes"
	"reflect"
	"testing"

	"tcpdemux/internal/rng"
)

// The byte-pair checksum, the escaping parse and the append-pass build the
// word-wise sum, Decode and the in-place BuildSegment replaced, kept as the
// references the tests below (and the fuzz targets) hold the shipped code
// to: same result, same error value, same aliasing.

func refSum16(data []byte, acc uint32) uint32 {
	for len(data) >= 2 {
		acc += uint32(data[0])<<8 | uint32(data[1])
		data = data[2:]
	}
	if len(data) == 1 {
		acc += uint32(data[0]) << 8
	}
	return acc
}

func refFinish(acc uint32) uint16 {
	for acc>>16 != 0 {
		acc = acc&0xffff + acc>>16
	}
	return ^uint16(acc)
}

func refChecksum(data []byte) uint16 { return refFinish(refSum16(data, 0)) }

func refTCPChecksum(src, dst [4]byte, segment []byte) uint16 {
	var pseudo [12]byte
	copy(pseudo[0:4], src[:])
	copy(pseudo[4:8], dst[:])
	pseudo[9] = protoTCP
	pseudo[10] = byte(len(segment) >> 8)
	pseudo[11] = byte(len(segment))
	return refFinish(refSum16(segment, refSum16(pseudo[:], 0)))
}

func refIPv4Unmarshal(h *IPv4Header, b []byte) (int, error) {
	if len(b) < IPv4HeaderLen {
		return 0, ErrIPv4Truncated
	}
	if b[0]>>4 != ipv4Version {
		return 0, ErrIPv4Version
	}
	hlen := int(b[0]&0x0f) * 4
	if hlen < IPv4HeaderLen {
		return 0, ErrIPv4BadIHL
	}
	if len(b) < hlen {
		return 0, ErrIPv4Truncated
	}
	total := int(getU16(b[2:]))
	if total < hlen || total > len(b) {
		return 0, ErrIPv4BadLength
	}
	if refChecksum(b[:hlen]) != 0 {
		return 0, ErrIPv4BadChecksum
	}
	h.TOS = b[1]
	h.TotalLen = uint16(total)
	h.ID = getU16(b[4:])
	ff := getU16(b[6:])
	h.Flags = uint8(ff >> 13)
	h.FragOff = ff & 0x1fff
	h.TTL = b[8]
	h.Protocol = b[9]
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	if hlen > IPv4HeaderLen {
		h.Options = append(h.Options[:0], b[IPv4HeaderLen:hlen]...)
	} else {
		h.Options = nil
	}
	return hlen, nil
}

func refParseSegment(frame []byte) (*Segment, error) {
	var seg Segment
	n, err := refIPv4Unmarshal(&seg.IP, frame)
	if err != nil {
		return nil, err
	}
	if seg.IP.Protocol != protoTCP {
		return nil, ErrNotTCP
	}
	if seg.IP.IsFragment() {
		return nil, ErrFragmented
	}
	body := frame[n:seg.IP.TotalLen]
	if refTCPChecksum(seg.IP.Src, seg.IP.Dst, body) != 0 {
		return nil, ErrTCPBadChecksum
	}
	m, err := seg.TCP.Unmarshal(body) // no checksum in it; unchanged
	if err != nil {
		return nil, err
	}
	seg.Payload = body[m:]
	return &seg, nil
}

func refBuildSegment(ip IPv4Header, tcp TCPHeader, payload []byte) ([]byte, error) {
	tcpLen, err := tcp.HeaderLen()
	if err != nil {
		return nil, err
	}
	ip.Protocol = protoTCP
	ipLen := ip.HeaderLen()
	total := ipLen + tcpLen + len(payload)
	if total > 0xffff {
		return nil, ErrIPv4BadLength
	}
	ip.TotalLen = uint16(total)
	buf := make([]byte, 0, total)
	if buf, err = ip.Marshal(buf); err != nil {
		return nil, err
	}
	putU16(buf[10:], 0)
	putU16(buf[10:], refChecksum(buf[:ipLen]))
	if buf, err = tcp.Marshal(buf); err != nil {
		return nil, err
	}
	buf = append(buf, payload...)
	seg := buf[ipLen:]
	putU16(seg[16:], refTCPChecksum(ip.Src, ip.Dst, seg))
	return buf, nil
}

// sameBacking reports whether a and b are the same bytes of the same array.
func sameBacking(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// checkParseEquivalent holds ParseSegment, Decode into a reused Segment and
// ExtractTuple to the reference on one frame.
func checkParseEquivalent(t *testing.T, reused *Segment, frame []byte) {
	t.Helper()
	want, wantErr := refParseSegment(frame)
	got, err := ParseSegment(frame)
	if err != wantErr {
		t.Fatalf("ParseSegment error %v, reference %v (frame %x)", err, wantErr, frame)
	}
	if derr := reused.Decode(frame); derr != wantErr {
		t.Fatalf("Decode error %v, reference %v (frame %x)", derr, wantErr, frame)
	}
	if wantErr != nil {
		if got != nil {
			t.Fatalf("ParseSegment returned a segment with error %v", err)
		}
		return
	}
	for _, seg := range []*Segment{got, reused} {
		if !reflect.DeepEqual(seg.IP, want.IP) || !bytes.Equal(seg.Payload, want.Payload) ||
			len(seg.TCP.Options) != len(want.TCP.Options) {
			t.Fatalf("segment differs from reference:\n got %+v\nwant %+v", seg, want)
		}
		gh, wh := seg.TCP, want.TCP
		gh.Options, wh.Options = nil, nil
		if !reflect.DeepEqual(gh, wh) {
			t.Fatalf("TCP header %+v, reference %+v", gh, wh)
		}
		for i, o := range want.TCP.Options {
			if seg.TCP.Options[i].Kind != o.Kind || !bytes.Equal(seg.TCP.Options[i].Data, o.Data) {
				t.Fatalf("option %d: %+v, reference %+v", i, seg.TCP.Options[i], o)
			}
		}
		if !sameBacking(seg.Payload, want.Payload) {
			t.Fatal("Payload does not alias the frame where the reference's does")
		}
	}
	tup, terr := ExtractTuple(frame)
	if terr != nil || tup != want.Tuple() {
		t.Fatalf("ExtractTuple = %v, %v on a frame the reference accepts as %v", tup, terr, want.Tuple())
	}
}

// TestChecksumMatchesReference sweeps every length 0..1500 over three
// fills: seeded noise, all 0xff (every word carries, the accumulator's
// end-around path) and all zero (the one input that sums to the other
// zero), each also under a TCP pseudo-header.
func TestChecksumMatchesReference(t *testing.T) {
	src := rng.New(7)
	buf := make([]byte, 1500)
	for _, fill := range []string{"noise", "ones", "zero"} {
		for i := range buf {
			switch fill {
			case "noise":
				buf[i] = byte(src.Uint64())
			case "ones":
				buf[i] = 0xff
			default:
				buf[i] = 0
			}
		}
		for n := 0; n <= len(buf); n++ {
			data := buf[len(buf)-n:] // odd and even start offsets into the fill
			if got, want := Checksum(data), refChecksum(data); got != want {
				t.Fatalf("%s len %d: Checksum %#04x, reference %#04x", fill, n, got, want)
			}
			a, b := Addr{byte(n), 0xff, 0xff, byte(n >> 8)}, Addr{0xff, 0xff, 0xff, 0xff}
			if got, want := TCPChecksum(a, b, data), refTCPChecksum(a, b, data); got != want {
				t.Fatalf("%s len %d: TCPChecksum %#04x, reference %#04x", fill, n, got, want)
			}
			if got, want := VerifyTCPChecksum(a, b, data), refTCPChecksum(a, b, data) == 0; got != want {
				t.Fatalf("%s len %d: VerifyTCPChecksum %v, reference %v", fill, n, got, want)
			}
		}
	}
}

// equivalenceFrames are built frames that cover what a generated byte
// string rarely does: IP and TCP options, link padding past TotalLen, odd
// and empty payloads, and a payload of 0xffff words.
func equivalenceFrames(t testing.TB) [][]byte {
	ipOpt := sampleIP()
	ipOpt.Options = []byte{7, 7, 4, 0, 1, 1, 1, 0}
	syn := sampleTCP()
	syn.Flags = FlagSYN
	syn.Options = []TCPOption{MSSOption(1460), {Kind: OptWindowScale, Data: []byte{7}}, {Kind: OptSACKPermit}}
	var frames [][]byte
	for _, c := range []struct {
		ip      IPv4Header
		tcp     TCPHeader
		payload []byte
	}{
		{sampleIP(), sampleTCP(), nil},
		{sampleIP(), sampleTCP(), []byte("q")},
		{sampleIP(), sampleTCP(), []byte("TXN 1 2 3 -45\n")},
		{sampleIP(), sampleTCP(), bytes.Repeat([]byte{0xff}, 1460)},
		{sampleIP(), sampleTCP(), bytes.Repeat([]byte{0xff}, 1459)},
		{sampleIP(), syn, nil},
		{ipOpt, syn, []byte("odd")},
	} {
		frame, err := BuildSegment(c.ip, c.tcp, c.payload)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := refBuildSegment(c.ip, c.tcp, c.payload)
		if err != nil || !bytes.Equal(frame, ref) {
			t.Fatalf("BuildSegment differs from the reference build (%v):\n got %x\nwant %x", err, frame, ref)
		}
		frames = append(frames, frame, padTo(frame, len(frame)+20, 0xAA))
	}
	return frames
}

// TestParseMatchesReference runs the built frames, every truncation of
// them and every single-byte corruption through checkParseEquivalent.
func TestParseMatchesReference(t *testing.T) {
	var reused Segment
	for _, frame := range equivalenceFrames(t) {
		checkParseEquivalent(t, &reused, frame)
		if len(frame) > 200 {
			continue
		}
		for n := 0; n < len(frame); n++ {
			checkParseEquivalent(t, &reused, frame[:n])
		}
		for i := range frame {
			for _, flip := range []byte{0x01, 0x80, 0xff} {
				bad := append([]byte(nil), frame...)
				bad[i] ^= flip
				checkParseEquivalent(t, &reused, bad)
			}
		}
	}
}

// TestBuildSegmentErrorsMatchReference pins the order the build's
// rejections are reported in.
func TestBuildSegmentErrorsMatchReference(t *testing.T) {
	badIP := sampleIP()
	badIP.Options = []byte{1, 2, 3}
	badTCP := sampleTCP()
	badTCP.Options = []TCPOption{{Kind: OptNOP}}
	for _, c := range []struct {
		ip      IPv4Header
		tcp     TCPHeader
		payload []byte
	}{
		{badIP, sampleTCP(), nil},
		{badIP, badTCP, nil},
		{sampleIP(), badTCP, nil},
		{sampleIP(), sampleTCP(), make([]byte, 0x10000)},
		{badIP, sampleTCP(), make([]byte, 0x10000)},
	} {
		_, err := BuildSegment(c.ip, c.tcp, c.payload)
		_, want := refBuildSegment(c.ip, c.tcp, c.payload)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("BuildSegment error %v, reference %v", err, want)
		}
	}
}

// TestDecodeStaysOffTheHeap: a local Segment decoded from an option-free
// frame costs no allocation, and the built frame is its build's only one.
func TestDecodeStaysOffTheHeap(t *testing.T) {
	frame, err := BuildSegment(sampleIP(), sampleTCP(), []byte("TXN 1 2 3 -45\n"))
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		var seg Segment
		if err := seg.Decode(frame); err != nil || len(seg.Payload) == 0 {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Decode allocates %v times per frame, want 0", n)
	}
	ip, tcp, payload := sampleIP(), sampleTCP(), []byte("OK 3 1 2 3\n")
	if n := testing.AllocsPerRun(200, func() {
		if _, err := BuildSegment(ip, tcp, payload); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("BuildSegment allocates %v times per frame, want 1", n)
	}
}

func BenchmarkDecode(b *testing.B) {
	frame, _ := BuildSegment(sampleIP(), sampleTCP(), []byte("TXN 1 2 3 -45\n"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var seg Segment
		if err := seg.Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildSegment(b *testing.B) {
	ip, tcp, payload := sampleIP(), sampleTCP(), []byte("OK 3 1 2 3\n")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildSegment(ip, tcp, payload); err != nil {
			b.Fatal(err)
		}
	}
}
