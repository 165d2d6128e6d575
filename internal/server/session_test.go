//go:build linux

package server

import (
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/wire"
)

// TestSessionEndpoint: the synthetic client endpoint names its session's
// descriptor and generation, fdOf reads the descriptor back, and no
// endpoint the server does not mint names a descriptor at all.
func TestSessionEndpoint(t *testing.T) {
	server := wire.MakeAddr(10, 0, 0, 1)
	for _, fd := range []int32{0, 1, maxSessionFD} {
		for _, gen := range []int32{0, 1<<genBits - 1, 1 << genBits, -1} {
			k := newSession(fd, gen, server, 0).key
			if got, ok := fdOf(k); !ok || got != int(fd) {
				t.Errorf("fd %d gen %d: endpoint %v:%d reads back as fd %d, %v", fd, gen, k.RemoteAddr, k.RemotePort, got, ok)
			}
			if a, p := k.RemoteAddr, k.RemotePort; a[0] != 10 || a[1]&0x80 == 0 || p < 1024 || p > 33791 {
				t.Errorf("fd %d gen %d: endpoint %v:%d outside 10.128/9, ports 1024..33791", fd, gen, a, p)
			}
			if k.LocalAddr != server || k.LocalPort != ServicePort {
				t.Errorf("fd %d gen %d: local side %v:%d", fd, gen, k.LocalAddr, k.LocalPort)
			}
		}
	}

	// The generation counts mod 2^18; within that, no two slots share an
	// endpoint. The corners of the grid carry every bit of both fields.
	if a, b := newSession(7, 1<<genBits+3, server, 0).key, newSession(7, 3, server, 0).key; a != b {
		t.Errorf("gen 2^18+3 mints %v, gen 3 mints %v", a, b)
	}
	var fds, gens []int32
	for i := int32(0); i < 64; i++ {
		fds = append(fds, i, maxSessionFD-i)
		gens = append(gens, i, 1<<genBits-1-i)
	}
	seen := make(map[core.Key][2]int32, len(fds)*len(gens))
	for _, fd := range fds {
		for _, gen := range gens {
			k := newSession(fd, gen, server, 0).key
			if prev, dup := seen[k]; dup {
				t.Fatalf("(fd %d, gen %d) and (fd %d, gen %d) both mint %v:%d", prev[0], prev[1], fd, gen, k.RemoteAddr, k.RemotePort)
			}
			seen[k] = [2]int32{fd, gen}
		}
	}

	for _, bad := range []struct {
		addr wire.Addr
		port uint16
	}{
		{server, 1024},                           // the server itself
		{wire.MakeAddr(10, 127, 255, 255), 1024}, // below 10.128/9
		{wire.MakeAddr(11, 128, 0, 0), 1024},     // another /8
		{wire.MakeAddr(10, 128, 0, 0), 1023},     // below the port range
		{wire.MakeAddr(10, 128, 0, 0), 33792},    // above it
	} {
		k := core.Key{LocalAddr: server, LocalPort: ServicePort, RemoteAddr: bad.addr, RemotePort: bad.port}
		if fd, ok := fdOf(k); ok {
			t.Errorf("fdOf(%v:%d) = %d, want no descriptor", bad.addr, bad.port, fd)
		}
	}
}
