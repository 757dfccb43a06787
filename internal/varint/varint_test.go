package varint

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// widths are values on both sides of every encoded-length boundary.
var widths = []uint64{0, 1, 127, 128, 16383, 16384, 1<<21 - 1, 1 << 21, 1<<31 - 1, 1 << 31, 1<<32 - 1, 1 << 32,
	1<<63 - 1, 1 << 63, math.MaxUint64}

func TestLenAndPutMatchEncodingBinary(t *testing.T) {
	for _, x := range widths {
		want := binary.AppendUvarint(nil, x)
		buf := make([]byte, MaxLen)
		if n := Put(buf, 0, x); n != len(want) || !slices.Equal(buf[:n], want) || Len(x) != len(want) {
			t.Errorf("Put(%d) = % x (Len %d), want % x", x, buf[:n], Len(x), want)
		}
		if v := int64(x); Unzigzag(Zigzag(v)) != v {
			t.Errorf("zigzag round trip changed %d", v)
		}
	}
}

// TestIntsStopsWhereUvarintDoes decodes every prefix of a run that mixes all
// widths, an overlong zero and a ten-byte value: the kernel must store
// exactly the values binary.Uvarint yields, stop where it stops, for its
// reason, and never look past the prefix (the slices are capped).
func TestIntsStopsWhereUvarintDoes(t *testing.T) {
	var enc []byte
	for _, x := range widths {
		enc = binary.AppendUvarint(enc, x)
	}
	enc = append(enc, 0x80, 0x00)       // overlong zero: accepted, like binary.Uvarint
	enc = append(enc, 0x80, 0x80, 0x01) // overlong-free three bytes
	tails := map[string][]byte{
		"":         nil,
		"eleven":   {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"tenth>1":  {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		"dangling": {0x80},
	}
	for name, tail := range tails {
		full := append(slices.Clone(enc), tail...)
		for cut := 0; cut <= len(full); cut++ {
			src := full[:cut:cut]
			var want []int64
			wantUsed, wantSt := 0, Done
			for {
				u, w := binary.Uvarint(src[wantUsed:])
				if w == 0 {
					wantSt = Short
					break
				} else if w < 0 {
					wantSt = Overflow
					break
				}
				want = append(want, int64(u))
				wantUsed += w
			}
			dst := make([]int64, len(want)+1) // one more than there is: must stop, not invent
			n, used, st := Ints(dst, src, false, 0, math.MaxUint64)
			if n != len(want) || used != wantUsed || st != wantSt || !slices.Equal(dst[:n], want) {
				t.Fatalf("%s cut %d: got %d values, %d bytes, status %d; want %d, %d, %d", name, cut, n, used, st, len(want), wantUsed, wantSt)
			}
			if n, used, st = Ints(dst[:len(want)], src, false, 0, math.MaxUint64); n != len(want) || used != wantUsed || st != Done {
				t.Fatalf("%s cut %d: exact-length read got %d values, %d bytes, status %d", name, cut, n, used, st)
			}
		}
	}
}

func TestIntsBoundsAndZigzag(t *testing.T) {
	enc := putAll(t, []uint64{5, 6, 300, 7})
	dst := make([]int32, 4)
	if n, used, st := Ints(dst, enc, false, 5, 299); n != 2 || used != 2 || st != OutOfRange {
		t.Fatalf("upper bound: %d values, %d bytes, status %d", n, used, st)
	}
	if n, _, st := Ints(dst, enc, false, 6, 300); n != 0 || st != OutOfRange {
		t.Fatalf("lower bound: %d values, status %d", n, st)
	}
	signed := []int32{0, -1, 1, math.MaxInt32, math.MinInt32, 8191, -8192, 8192}
	buf := make([]byte, ZigzagBound(signed))
	end := PutZigzags(buf, 0, signed)
	got := make([]int32, len(signed))
	if n, used, st := Ints(got, buf[:end], true, 0, math.MaxUint32); n != len(signed) || used != end || st != Done || !slices.Equal(got, signed) {
		t.Fatalf("zigzag round trip: %v (%d values, %d bytes, status %d)", got, n, used, st)
	}
	// One past the int32 image of the zigzag map.
	over := binary.AppendUvarint(nil, math.MaxUint32+1)
	if n, _, st := Ints(got[:1], over, true, 0, math.MaxUint32); n != 0 || st != OutOfRange {
		t.Fatalf("zigzag int32 overflow: %d values, status %d", n, st)
	}
	wide := []int64{math.MaxInt64, math.MinInt64, -1}
	buf = make([]byte, ZigzagBound(wide))
	end = PutZigzags(buf, 0, wide)
	got64 := make([]int64, len(wide))
	if n, _, st := Ints(got64, buf[:end], true, 0, math.MaxUint64); n != len(wide) || st != Done || !slices.Equal(got64, wide) {
		t.Fatalf("zigzag int64 round trip: %v", got64)
	}
}

func TestFloats(t *testing.T) {
	xs := []float64{0, -1.5, math.Pi, math.Inf(1), math.SmallestNonzeroFloat64}
	buf := make([]byte, 8*len(xs))
	if end := PutFloats(buf, 0, xs); end != len(buf) {
		t.Fatalf("PutFloats wrote %d bytes", end)
	}
	for cut := 0; cut <= len(buf); cut++ {
		got := make([]float64, len(xs))
		if n := Floats(got, buf[:cut:cut]); n != cut/8 || !slices.Equal(got[:n], xs[:n]) {
			t.Fatalf("cut %d: %d floats %v", cut, n, got[:n])
		}
	}
}

// putAll encodes xs one after the other.
func putAll(t *testing.T, xs []uint64) []byte {
	t.Helper()
	var enc []byte
	for _, x := range xs {
		enc = binary.AppendUvarint(enc, x)
	}
	return enc
}
