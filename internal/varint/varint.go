// Package varint holds the bulk integer and float kernels every array codec
// of the module runs on: the wire arrays of internal/wire (zigzag int32 and
// int64 runs) and the degree, adjacency and weight sections of the binary
// graph format in internal/graphio. One array costs one tight, index-based
// loop on each side — no per-element function call, re-slice or error value.
//
// The encoding is encoding/binary's: base-128 little-endian uvarints, signed
// values zigzag-mapped first, floats as eight little-endian IEEE-754 bytes.
// The readers accept exactly what binary.Uvarint accepts — overlong
// encodings included, more than ten bytes or a tenth byte above 1 refused —
// because everything longer than two bytes is decoded by binary.Uvarint
// itself.
package varint

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// MaxLen is the longest encoding of one value.
const MaxLen = binary.MaxVarintLen64

// Len is the encoded size of x.
func Len(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// Zigzag maps a signed value to the unsigned one its encoding carries: small
// magnitudes of either sign become small numbers.
func Zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// Unzigzag inverts Zigzag.
func Unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Put writes x at buf[i:] and returns the index after it. buf must have
// room: writers size it once from Len or a bound such as ZigzagBound.
func Put(buf []byte, i int, x uint64) int {
	for x >= 0x80 {
		buf[i] = byte(x) | 0x80
		x >>= 7
		i++
	}
	buf[i] = byte(x)
	return i + 1
}

// ZigzagBound is an upper bound on the zigzag encoding of xs: its length
// times the encoded size of its widest element.
//
//kappa:hotpath
func ZigzagBound[T int32 | int64](xs []T) int {
	var widest uint64
	for _, x := range xs {
		widest |= Zigzag(int64(x))
	}
	return len(xs) * Len(widest)
}

// PutZigzags writes the zigzag encoding of every element of xs at buf[i:]
// and returns the index after the last.
//
//kappa:hotpath
func PutZigzags[T int32 | int64](buf []byte, i int, xs []T) int {
	for _, x := range xs {
		u := Zigzag(int64(x))
		for u >= 0x80 {
			buf[i] = byte(u) | 0x80
			u >>= 7
			i++
		}
		buf[i] = byte(u)
		i++
	}
	return i
}

// PutFloats writes xs at buf[i:] as little-endian IEEE-754 bits and returns
// the index after them.
//
//kappa:hotpath
func PutFloats(buf []byte, i int, xs []float64) int {
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[i:], math.Float64bits(x))
		i += 8
	}
	return i
}

// Floats fills dst from the little-endian IEEE-754 bits at the start of src
// and returns how many elements the bytes present sufficed for.
//
//kappa:hotpath
func Floats(dst []float64, src []byte) int {
	n := min(len(dst), len(src)/8)
	for i := range dst[:n] {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return n
}

// Status says how a bulk read ended.
type Status uint8

const (
	// Done: every element was decoded.
	Done Status = iota
	// Short: the bytes ended before or inside the next value. A streaming
	// caller refills and resumes; for a complete input it is truncation.
	Short
	// Overflow: the next value does not fit 64 bits.
	Overflow
	// OutOfRange: the next value lies outside the bounds given.
	OutOfRange
)

// Ints decodes len(dst) uvarints from the start of src into dst. Every raw
// value must lie in [lo, hi]; with zigzag set it is then zigzag-decoded, and
// either way it must fit T (the caller's bounds see to that: hi is at most
// 1<<32-1 for zigzag int32, at most 1<<63-1 for a plain value). It returns
// how many elements were stored, how many bytes they took, and why it
// stopped: on anything but Done, src[used:] starts at the value that was not
// stored, whole except after Short.
//
//kappa:hotpath
func Ints[T int32 | int64](dst []T, src []byte, zigzag bool, lo, hi uint64) (n, used int, st Status) {
	i, span := 0, hi-lo
	for k := range dst {
		// Values of one to three bytes — node ids, degrees, most weights —
		// are assembled here; anything longer, and the last two bytes of
		// src, go through binary.Uvarint, whose verdict on overlong and
		// truncated encodings is the format's.
		var u uint64
		w := 1
		if i+2 < len(src) {
			b0, b1, b2 := src[i], src[i+1], src[i+2]
			switch {
			case b0 < 0x80:
				u = uint64(b0)
			case b1 < 0x80:
				u, w = uint64(b0&0x7f)|uint64(b1)<<7, 2
			case b2 < 0x80:
				u, w = uint64(b0&0x7f)|uint64(b1&0x7f)<<7|uint64(b2)<<14, 3
			default:
				w = 0
			}
		} else {
			w = 0
		}
		if w == 0 {
			if u, w = binary.Uvarint(src[i:]); w == 0 {
				return k, i, Short
			} else if w < 0 {
				return k, i, Overflow
			}
		}
		if u-lo > span {
			return k, i, OutOfRange
		}
		if zigzag {
			dst[k] = T(Unzigzag(u))
		} else {
			dst[k] = T(u)
		}
		i += w
	}
	return len(dst), i, Done
}
