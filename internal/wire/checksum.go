// Package wire implements the IPv4 and TCP wire formats needed to drive the
// demultiplexer with real packet bytes: header parsing and serialization,
// the RFC 1071 Internet checksum, TCP options, and a zero-allocation fast
// path that extracts the demultiplexing key straight from a raw frame.
package wire

import (
	"encoding/binary"
	"math/bits"
)

// Checksum computes the RFC 1071 Internet checksum of data: the one's
// complement of the one's-complement sum of the data viewed as big-endian
// 16-bit words, with an odd trailing byte padded with zero.
func Checksum(data []byte) uint16 {
	return ^fold(sum(data, 0))
}

// sum adds data to an ongoing one's-complement accumulator, eight bytes at
// a time. A big-endian 64-bit word is four 16-bit words at weights 2^48,
// 2^32, 2^16 and 1, all congruent to 1 modulo 2^16-1, so adding whole words
// with the carry wrapped around preserves the 16-bit one's-complement sum;
// fold reduces it. The accumulator is zero only if every byte added was.
//
//demux:hotpath
func sum(data []byte, acc uint64) uint64 {
	var c uint64
	for len(data) >= 8 {
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(data), c)
		data = data[8:]
	}
	if len(data) >= 4 {
		acc, c = bits.Add64(acc, uint64(binary.BigEndian.Uint32(data)), c)
		data = data[4:]
	}
	if len(data) >= 2 {
		acc, c = bits.Add64(acc, uint64(binary.BigEndian.Uint16(data)), c)
		data = data[2:]
	}
	if len(data) == 1 {
		acc, c = bits.Add64(acc, uint64(data[0])<<8, c)
	}
	acc, c = bits.Add64(acc, 0, c)
	return acc + c
}

// fold reduces the 64-bit accumulator to the 16-bit one's-complement sum.
// Every step maps a nonzero value to a nonzero one, so a nonzero
// accumulator folds into 1..0xffff, never to the other zero.
func fold(acc uint64) uint16 {
	acc = acc>>32 + acc&0xffffffff
	acc = acc>>16 + acc&0xffff
	acc = acc>>16 + acc&0xffff
	acc = acc>>16 + acc&0xffff
	return uint16(acc)
}

// pseudoSum is the one's-complement sum of the IPv4 pseudo-header: source,
// destination, protocol 6, and the TCP length (its low 16 bits, all the
// field holds).
func pseudoSum(src, dst [4]byte, tcpLen int) uint64 {
	return uint64(binary.BigEndian.Uint32(src[:])) + uint64(binary.BigEndian.Uint32(dst[:])) +
		protoTCP + uint64(uint16(tcpLen))
}

// TCPChecksum computes the TCP checksum over the IPv4 pseudo-header
// (source, destination, protocol 6, TCP length) followed by the TCP segment
// (header plus payload). segment must have its checksum field zeroed or the
// result is the verification residue rather than the correct checksum.
func TCPChecksum(src, dst [4]byte, segment []byte) uint16 {
	return ^fold(sum(segment, pseudoSum(src, dst, len(segment))))
}

// VerifyTCPChecksum reports whether segment (with its embedded checksum
// field intact) checksums to zero over the pseudo-header, i.e. is valid.
func VerifyTCPChecksum(src, dst [4]byte, segment []byte) bool {
	return TCPChecksum(src, dst, segment) == 0
}
