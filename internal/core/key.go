// Package core implements the paper's subject matter: TCP protocol control
// block (PCB) demultiplexing. It provides the PCB and connection-key types,
// a Demuxer interface with per-lookup cost accounting (the paper's figure
// of merit is the number of PCBs examined per inbound packet), and the four
// algorithms the paper analyzes —
//
//   - BSDList: linear list with a one-entry last-found cache (§3.1)
//   - MTFList: Crowcroft's move-to-front list (§3.2)
//   - SRCache: Partridge & Pink's last-sent/last-received cache (§3.3)
//   - SequentHash: hash chains, each with its own one-entry cache (§3.4)
//
// plus the extensions §3.5 discusses: MTFHash (move-to-front within hash
// chains), DirectIndex (protocol-negotiated connection IDs as in TP4, X.25
// and XTP), and MapDemux (a modern global hash table baseline).
//
// Demuxers are not safe for concurrent use; an engine.Stack, which has a
// single owner, needs none, and internal/parallel holds the disciplines
// that are.
package core

import (
	"bytes"
	"fmt"

	"tcpdemux/internal/wire"
)

// Key identifies one connection endpoint from the local host's point of
// view. A zero RemoteAddr/RemotePort (and, for multihomed listeners, a zero
// LocalAddr) acts as a wildcard, as in the BSD PCB table: a listening
// socket's PCB carries wildcards until the connection is established.
type Key struct {
	LocalAddr  wire.Addr
	RemoteAddr wire.Addr
	LocalPort  uint16
	RemotePort uint16
}

// KeyFromTuple converts an inbound packet's wire tuple into the local key
// under which the receiving host stores the connection's PCB: the packet's
// destination is local, its source remote.
func KeyFromTuple(t wire.Tuple) Key {
	return Key{
		LocalAddr:  t.DstAddr,
		LocalPort:  t.DstPort,
		RemoteAddr: t.SrcAddr,
		RemotePort: t.SrcPort,
	}
}

// Tuple converts the key back into the wire tuple of an inbound packet for
// this connection.
func (k Key) Tuple() wire.Tuple {
	return wire.Tuple{
		SrcAddr: k.RemoteAddr,
		SrcPort: k.RemotePort,
		DstAddr: k.LocalAddr,
		DstPort: k.LocalPort,
	}
}

// String renders the key as "local <- remote".
func (k Key) String() string {
	return fmt.Sprintf("%s:%d <- %s:%d", k.LocalAddr, k.LocalPort, k.RemoteAddr, k.RemotePort)
}

// Compare orders keys lexicographically by (LocalAddr, LocalPort,
// RemoteAddr, RemotePort), returning -1, 0, or +1. It defines the
// canonical table order deterministic Walk implementations sort by, so
// netstat-style dumps never depend on map iteration order.
func (k Key) Compare(o Key) int {
	if c := bytes.Compare(k.LocalAddr[:], o.LocalAddr[:]); c != 0 {
		return c
	}
	if k.LocalPort != o.LocalPort {
		if k.LocalPort < o.LocalPort {
			return -1
		}
		return 1
	}
	if c := bytes.Compare(k.RemoteAddr[:], o.RemoteAddr[:]); c != 0 {
		return c
	}
	if k.RemotePort != o.RemotePort {
		if k.RemotePort < o.RemotePort {
			return -1
		}
		return 1
	}
	return 0
}

// zeroAddr is the wildcard address.
var zeroAddr wire.Addr

// IsWildcard reports whether the key contains any wildcard component and
// therefore belongs to a listening socket rather than a connection.
func (k Key) IsWildcard() bool {
	return k.RemoteAddr == zeroAddr || k.RemotePort == 0 || k.LocalAddr == zeroAddr
}

// ListenKey builds the key for a socket listening on the given local
// address and port; addr may be the zero Addr to listen on all interfaces.
func ListenKey(addr wire.Addr, port uint16) Key {
	return Key{LocalAddr: addr, LocalPort: port}
}

// Match scores pcbKey (possibly containing wildcards) against the exact
// key of an inbound packet. It returns -1 for no match, otherwise the
// number of non-wildcard components that matched (3 = exact connection
// match, 0..2 = listener matches of increasing specificity). The local
// port must always match — BSD semantics.
func Match(pcbKey, packet Key) int {
	if pcbKey.LocalPort != packet.LocalPort {
		return -1
	}
	score := 0
	if pcbKey.LocalAddr != zeroAddr {
		if pcbKey.LocalAddr != packet.LocalAddr {
			return -1
		}
		score++
	}
	if pcbKey.RemoteAddr != zeroAddr {
		if pcbKey.RemoteAddr != packet.RemoteAddr {
			return -1
		}
		score++
	}
	if pcbKey.RemotePort != 0 {
		if pcbKey.RemotePort != packet.RemotePort {
			return -1
		}
		score++
	}
	return score
}

// ExactScore is the Match score of a fully specified connection key: all
// three optional components (local address, remote address, remote port)
// present and equal. External demultiplexers built on Match — the rcu
// package's lock-free table, for one — compare against it to distinguish
// an exact connection match from the best wildcard listener.
const ExactScore = 3

// exactScore is the internal alias predating the export.
const exactScore = ExactScore

// Direction classifies an inbound packet for demultiplexers whose probe
// order depends on it (the SR cache examines the receive-side cache first
// for data and the send-side cache first for acknowledgements — paper
// footnote 5).
type Direction int

// Inbound packet classes.
const (
	// DirData marks a segment carrying application data (a transaction).
	DirData Direction = iota
	// DirAck marks a pure transport-level acknowledgement.
	DirAck
)

// String names the direction.
func (d Direction) String() string {
	if d == DirAck {
		return "ack"
	}
	return "data"
}
