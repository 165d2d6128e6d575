// SYN cookies and per-reason drop accounting.
//
// The engine's listener backlog (DefaultBacklog) bounds half-open PCBs so
// a SYN flood cannot bloat the demultiplexer — but bounding alone means a
// flooded listener refuses every newcomer, legitimate or not, until the
// flood ebbs. SYN cookies (Bernstein's 1996 defense) close that gap: when
// the backlog is full the listener answers the SYN *statelessly*, encoding
// the would-be connection's identity in its own initial sequence number
//
//	ISS = SipHash(secret, tuple, client-ISN)   (truncated to 32 bits)
//
// and allocating nothing. A real client answers with the third-step ACK
// carrying exactly ISS+1; the listener recomputes the keyed hash from the
// ACK itself, and only that validation — not any stored state — admits the
// connection, which is created directly in ESTABLISHED. A spoofed SYN
// yields only a SYN|ACK to a host that never asked for it; the flood costs
// the listener no memory at all.
//
// The same file centralizes the per-reason drop counters, so flood
// handling is observable: a stack under attack shows exactly where
// segments died instead of silently shedding them.
package engine

import (
	"tcpdemux/internal/core"
	"tcpdemux/internal/hashfn"
	"tcpdemux/internal/rng"
	"tcpdemux/internal/wire"
)

// StackStats is a snapshot of the stack's segment-disposition counters.
// Dropped* name the reason a delivered frame produced no connection
// progress; Cookies* trace the stateless handshake path.
type StackStats struct {
	// DroppedBadChecksum counts frames rejected by IPv4 or TCP checksum
	// verification.
	DroppedBadChecksum uint64
	// DroppedBadFrame counts frames rejected by the parser for any other
	// reason (truncation, bad version, bad header lengths...).
	DroppedBadFrame uint64
	// DroppedNoRoute counts well-formed frames addressed to another host.
	DroppedNoRoute uint64
	// DroppedNoListener counts segments that matched no PCB at all and
	// were answered with RST.
	DroppedNoListener uint64
	// DroppedRST counts inbound RSTs that matched no PCB; RFC 793 forbids
	// resetting a reset, so they die silently.
	DroppedRST uint64
	// DroppedBacklogFull counts SYNs shed because the listener's half-open
	// backlog was full and SYN cookies were disabled.
	DroppedBacklogFull uint64
	// DroppedBadCookie counts listener ACKs that failed cookie validation
	// (with cookies enabled) and were answered with RST.
	DroppedBadCookie uint64
	// CookiesSent counts stateless SYN|ACKs issued while the backlog was
	// full.
	CookiesSent uint64
	// CookiesAccepted counts connections established by a valid cookie
	// ACK.
	CookiesAccepted uint64
	// SynDrops counts every SYN that found the backlog full, whether it
	// was then shed or answered with a cookie (the pre-cookie counter,
	// kept for comparability across experiments).
	SynDrops uint64
}

// Stats returns a snapshot of the drop and cookie counters. It is a
// thin view over the stack's telemetry counters (see Stack.SetTelemetry)
// kept for existing callers and reports.
func (s *Stack) Stats() StackStats {
	t := s.tel
	return StackStats{
		DroppedBadChecksum: t.DroppedBadChecksum.Value(),
		DroppedBadFrame:    t.DroppedBadFrame.Value(),
		DroppedNoRoute:     t.DroppedNoRoute.Value(),
		DroppedNoListener:  t.DroppedNoListener.Value(),
		DroppedRST:         t.DroppedRST.Value(),
		DroppedBacklogFull: t.DroppedBacklogFull.Value(),
		DroppedBadCookie:   t.DroppedBadCookie.Value(),
		CookiesSent:        t.CookiesSent.Value(),
		CookiesAccepted:    t.CookiesAccepted.Value(),
		SynDrops:           t.SynDrops.Value(),
	}
}

// cookieSecretSalt separates the cookie key's derivation from every other
// consumer of the stack's seed, so enabling cookies does not perturb the
// deterministic ISS sequence existing tests pin down.
const cookieSecretSalt = 0x5c00c1e5ec2e7000

// cookieKey lazily derives the stack's cookie secret.
func (s *Stack) cookieKey() hashfn.Keyed {
	if !s.cookieInit {
		s.cookie = hashfn.KeyedFromRNG(rng.New(s.seed ^ cookieSecretSalt))
		s.cookieInit = true
	}
	return s.cookie
}

// cookieISS computes the stateless initial sequence number for a SYN with
// client ISN isn on the given inbound tuple.
func (s *Stack) cookieISS(t wire.Tuple, isn uint32) uint32 {
	return uint32(s.cookieKey().Sum64Salted(t, uint64(isn)))
}

// sendCookieSynAck answers a SYN statelessly: the SYN|ACK's sequence
// number is the cookie, and nothing is allocated or inserted.
func (s *Stack) sendCookieSynAck(seg *wire.Segment) {
	iss := s.cookieISS(seg.Tuple(), seg.TCP.Seq)
	ip := wire.IPv4Header{TTL: 64, Src: seg.IP.Dst, Dst: seg.IP.Src}
	tcp := wire.TCPHeader{
		SrcPort: seg.TCP.DstPort, DstPort: seg.TCP.SrcPort,
		Seq: iss, Ack: seg.TCP.Seq + 1,
		Flags: wire.FlagSYN | wire.FlagACK, Window: 65535,
	}
	frame, err := wire.BuildSegment(ip, tcp, nil)
	if err != nil {
		return
	}
	s.tel.CookiesSent.Inc()
	s.emit(frame)
}

// acceptCookieACK validates a pure ACK arriving at a listener against the
// cookie it must echo, and on success creates the connection directly in
// ESTABLISHED — reconstructing from the segment alone the state a normal
// handshake would have accumulated in SYN_RCVD.
func (s *Stack) acceptCookieACK(seg *wire.Segment, key core.Key) {
	// The client ISN is one below the ACK's sequence number (its SYN
	// consumed one octet), and a valid ACK acknowledges cookie+1.
	isn := seg.TCP.Seq - 1
	if s.cookieISS(seg.Tuple(), isn)+1 != seg.TCP.Ack {
		s.tel.DroppedBadCookie.Inc()
		s.sendRST(seg)
		return
	}
	c := s.newConn(key, core.StateEstablished, s.handlers[key.LocalPort])
	c.pcb.RcvNxt = seg.TCP.Seq
	c.pcb.SndNxt = seg.TCP.Ack
	if err := s.demux.Insert(&c.pcb); err != nil {
		// A connection PCB with this key appeared between the lookup and
		// now (duplicate ACK racing itself); drop.
		return
	}
	s.tel.CookiesAccepted.Inc()
	if s.OnAccept != nil {
		s.OnAccept(c)
	}
	// The validating ACK may already carry the first transaction.
	if len(seg.Payload) > 0 {
		s.handleEstablished(c, seg)
	}
}
