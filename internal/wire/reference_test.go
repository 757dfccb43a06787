package wire

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
)

// The array codecs as they were before the bulk kernels of internal/varint:
// one readZigzag or AppendUvarint call, one re-slice and one error check per
// element. Kept verbatim as the oracle the kernels must agree with — same
// values, same rest, same accept/reject and the same error text — on every
// input.

func referenceAppendInt32s(dst []byte, xs []int32) []byte {
	dst = appendUvarint(dst, uint64(len(xs)))
	for _, x := range xs {
		dst = appendZigzag(dst, int64(x))
	}
	return dst
}

func referenceReadInt32s(data []byte) ([]int32, []byte, error) {
	n, data, err := readUvarint(data)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, data, nil
	}
	if n > uint64(len(data)) {
		return nil, nil, fmt.Errorf("wire: %d elements declared, %d bytes left", n, len(data))
	}
	xs := make([]int32, n)
	for i := range xs {
		var v int64
		v, data, err = readZigzag(data)
		if err != nil {
			return nil, nil, err
		}
		if v < math.MinInt32 || v > math.MaxInt32 {
			return nil, nil, fmt.Errorf("wire: value %d overflows int32", v)
		}
		xs[i] = int32(v)
	}
	return xs, data, nil
}

func referenceAppendInt64s(dst []byte, xs []int64) []byte {
	dst = appendUvarint(dst, uint64(len(xs)))
	for _, x := range xs {
		dst = appendZigzag(dst, x)
	}
	return dst
}

func referenceReadInt64s(data []byte) ([]int64, []byte, error) {
	n, data, err := readUvarint(data)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, data, nil
	}
	if n > uint64(len(data)) {
		return nil, nil, fmt.Errorf("wire: %d elements declared, %d bytes left", n, len(data))
	}
	xs := make([]int64, n)
	for i := range xs {
		xs[i], data, err = readZigzag(data)
		if err != nil {
			return nil, nil, err
		}
	}
	return xs, data, nil
}

// sameRead holds one bulk read against its reference: values, rest and error
// text.
func sameRead[T any](t *testing.T, what string, in []byte, got []T, gotRest []byte, gotErr error, want []T, wantRest []byte, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s(% x): error %v, reference %v", what, in, gotErr, wantErr)
	}
	if (got == nil) != (want == nil) || !bytes.Equal(gotRest, wantRest) {
		t.Fatalf("%s(% x): nil-ness or rest differ from the reference", what, in)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s(% x): %v, reference %v", what, in, got, want)
	}
}

// checkReads decodes in with both array readers and their references.
func checkReads(t *testing.T, in []byte) {
	t.Helper()
	g32, r32, e32 := readInt32s(in)
	w32, wr32, we32 := referenceReadInt32s(in)
	sameRead(t, "readInt32s", in, g32, r32, e32, w32, wr32, we32)
	g64, r64, e64 := readInt64s(in)
	w64, wr64, we64 := referenceReadInt64s(in)
	sameRead(t, "readInt64s", in, g64, r64, e64, w64, wr64, we64)
}

// boundary32 and boundary64 sit on both sides of every width boundary of the
// zigzag encoding, and on the edges of the types.
var (
	boundary32 = []int32{0, -1, 1, 63, -64, 64, -65, 8191, -8192, 8192, 16383, 16384, 1<<20 - 1, -1 << 20, 1 << 20,
		1<<27 - 1, 1 << 27, math.MaxInt32, math.MinInt32}
	boundary64 = []int64{0, 127, 128, 16383, 16384, math.MaxInt32, math.MinInt32, 1 << 31, -1<<31 - 1, 1 << 34, 1 << 48,
		math.MaxInt64, math.MinInt64}
)

// TestBulkWritersMatchReference pins the encoders byte for byte: lengths 0,
// 1 and many, every width, appended behind bytes already there.
func TestBulkWritersMatchReference(t *testing.T) {
	prefix := []byte{0xaa, 0xbb}
	for _, xs := range [][]int32{nil, {}, {0}, {math.MinInt32}, boundary32} {
		if got, want := appendInts(slices.Clone(prefix), xs), referenceAppendInt32s(slices.Clone(prefix), xs); !bytes.Equal(got, want) {
			t.Errorf("appendInts(%v) = % x, reference % x", xs, got, want)
		}
	}
	for _, xs := range [][]int64{nil, {1 << 40}, boundary64} {
		if got, want := appendInts(slices.Clone(prefix), xs), referenceAppendInt64s(slices.Clone(prefix), xs); !bytes.Equal(got, want) {
			t.Errorf("appendInts(%v) = % x, reference % x", xs, got, want)
		}
	}
}

// TestBulkReadersMatchReferenceOnEveryPrefix cuts valid encodings — and ones
// that end in an overlong, an eleven-byte and an out-of-range value — at
// every byte: each prefix, its capacity capped so that a read past it would
// panic, must be accepted or refused by the kernels exactly as by the
// reference, with the same values, rest and error text.
func TestBulkReadersMatchReferenceOnEveryPrefix(t *testing.T) {
	inputs := [][]byte{
		referenceAppendInt32s(nil, boundary32),
		referenceAppendInt64s(nil, boundary64),
		append(referenceAppendInt32s(nil, []int32{1, 2, 3}), 0xde, 0xad),           // trailing bytes stay in rest
		{3, 0x80, 0x00, 0x81, 0x00, 0x05},                                          // overlong 0 and 1
		append([]byte{2, 0x02}, bytes.Repeat([]byte{0xff}, 11)...),                 // eleven-byte varint
		append([]byte{2}, appendUvarint(appendUvarint(nil, 4), 1<<32)...),          // one past the int32 image
		append([]byte{2}, appendUvarint(appendUvarint(nil, 4), math.MaxUint64)...), // int64 minimum, int32 overflow
		{0xff, 0xff, 0xff, 0xff, 0x0f},                                             // a count the bytes cannot back
		bytes.Repeat([]byte{0xff}, 12),                                             // the count itself overflows
	}
	for _, enc := range inputs {
		for cut := 0; cut <= len(enc); cut++ {
			checkReads(t, enc[:cut:cut])
		}
	}
}

// FuzzBulkVarintMatchesReference holds the two array readers against their
// references on arbitrary bytes, and the writers on whatever the readers
// accepted.
func FuzzBulkVarintMatchesReference(f *testing.F) {
	f.Add(referenceAppendInt32s(nil, boundary32))
	f.Add(referenceAppendInt64s(nil, boundary64))
	f.Add(append(referenceAppendInt32s(nil, []int32{1, 2, 3}), 0xde, 0xad))
	f.Add([]byte{3, 0x80, 0x00, 0x81, 0x00, 0x05})
	f.Add(append([]byte{2, 0x02}, bytes.Repeat([]byte{0xff}, 11)...))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, in []byte) {
		in = in[:len(in):len(in)]
		checkReads(t, in)
		if xs, _, err := readInt32s(in); err == nil {
			if got, want := appendInts(nil, xs), referenceAppendInt32s(nil, xs); !bytes.Equal(got, want) {
				t.Fatalf("appendInts(%v) = % x, reference % x", xs, got, want)
			}
		}
		if xs, _, err := readInt64s(in); err == nil {
			if got, want := appendInts(nil, xs), referenceAppendInt64s(nil, xs); !bytes.Equal(got, want) {
				t.Fatalf("appendInts(%v) = % x, reference % x", xs, got, want)
			}
		}
	})
}
