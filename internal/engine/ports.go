package engine

import (
	"errors"

	"tcpdemux/internal/wire"
)

// Ephemeral port range (the IANA dynamic range).
const (
	ephemeralLo = 49152
	ephemeralHi = 65535
)

// ErrPortsExhausted is returned when no ephemeral port is free.
var ErrPortsExhausted = errors.New("engine: ephemeral ports exhausted")

// allocEphemeral finds a free local port, starting from a random rotating
// offset so sequential connections land on distinct ports (and therefore
// distinct hash chains). The stack's own bookkeeping — not demultiplexer
// probing — decides occupancy, so allocation does not distort lookup
// statistics.
func (s *Stack) allocEphemeral() (uint16, error) {
	if s.usedPorts == nil {
		s.usedPorts = make(map[uint16]bool)
	}
	const span = ephemeralHi - ephemeralLo + 1
	start := s.src.Intn(span)
	for i := 0; i < span; i++ {
		port := uint16(ephemeralLo + (start+i)%span)
		if !s.usedPorts[port] {
			s.usedPorts[port] = true
			return port, nil
		}
	}
	return 0, ErrPortsExhausted
}

// releasePort returns an ephemeral port to the pool. Explicitly bound
// ports (outside the dynamic range or never allocated) are ignored.
func (s *Stack) releasePort(port uint16) {
	delete(s.usedPorts, port)
}

// ConnectEphemeral is Connect with an automatically allocated local port,
// the way connect(2) behaves when the socket is unbound. The port returns
// to the pool when the connection fully closes (teardown or TIME_WAIT
// reaping).
func (s *Stack) ConnectEphemeral(remote wire.Addr, remotePort uint16, h Handler) (*Conn, error) {
	port, err := s.allocEphemeral()
	if err != nil {
		return nil, err
	}
	conn, err := s.Connect(remote, remotePort, port, h)
	if err != nil {
		s.releasePort(port)
		return nil, err
	}
	return conn, nil
}
