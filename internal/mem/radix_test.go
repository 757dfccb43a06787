package mem

import (
	"cmp"
	"slices"
	"testing"
)

// xorshift is a tiny deterministic generator for the test inputs (mem sits
// below internal/rng in the import graph).
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

func TestSortKeyedMatchesStableSort(t *testing.T) {
	x := xorshift(88172645463325252)
	masks := []uint32{
		0xffffffff, // every digit varies
		0x000000ff, // one digit varies: three passes skipped
		0x00ff00ff, // alternating: an even number of passes
		0x00ffffff, // an odd number of passes: result copied back from tmp
		0,          // constant keys: nothing to do
		3,          // heavy duplicates
	}
	for _, n := range []int{0, 1, 2, radixMin - 1, radixMin, radixMin + 1, 255, 256, 257, 5000} {
		for _, mask := range masks {
			recs := make([]uint64, n)
			for i := range recs {
				recs[i] = Keyed(uint32(x.next())&mask|0x5a000000&^mask, int32(i))
			}
			want := slices.Clone(recs)
			slices.SortStableFunc(want, func(a, b uint64) int { return cmp.Compare(keyedKey(a), keyedKey(b)) })
			sortKeyed(recs, make([]uint64, n))
			if !slices.Equal(recs, want) {
				t.Fatalf("n=%d mask=%#x: radix order differs from the stable sort", n, mask)
			}
		}
	}
}

func TestSortKeyedWords(t *testing.T) {
	x := xorshift(2463534242)
	const n = 3000
	// Three-word keys from small alphabets, so runs tie on one, two and all
	// three words.
	keys := make([][3]uint32, n)
	for i := range keys {
		keys[i] = [3]uint32{uint32(x.next() % 3), uint32(x.next() % 50), uint32(x.next() % 4)}
	}
	want := make([]int32, n)
	for i := range want {
		want[i] = int32(i)
	}
	// Fully tied elements: descending index, the order the tied callback
	// below imposes.
	slices.SortFunc(want, func(a, b int32) int {
		return cmp.Or(cmp.Compare(keys[a][0], keys[b][0]), cmp.Compare(keys[a][1], keys[b][1]),
			cmp.Compare(keys[a][2], keys[b][2]), cmp.Compare(b, a))
	})

	recs := make([]uint64, n)
	tiedRuns := 0
	SortKeyedWords(recs, make([]uint64, n), 3,
		func(idx int32, word int) uint32 { return keys[idx][word] },
		func(run []uint64) {
			tiedRuns++
			slices.Reverse(run)
		})
	if tiedRuns == 0 {
		t.Fatal("no fully tied run reached the callback")
	}
	for i, r := range recs {
		if KeyedIdx(r) != want[i] {
			t.Fatalf("position %d holds element %d, want %d", i, KeyedIdx(r), want[i])
		}
	}

	// Without a callback, fully tied elements stay in index order.
	SortKeyedWords(recs, make([]uint64, n), 2,
		func(idx int32, word int) uint32 { return keys[idx][word] }, nil)
	for i := 1; i < n; i++ {
		a, b := KeyedIdx(recs[i-1]), KeyedIdx(recs[i])
		ka, kb := [2]uint32{keys[a][0], keys[a][1]}, [2]uint32{keys[b][0], keys[b][1]}
		if c := cmp.Or(cmp.Compare(ka[0], kb[0]), cmp.Compare(ka[1], kb[1])); c > 0 || (c == 0 && a > b) {
			t.Fatalf("positions %d, %d out of order: elements %d %v, %d %v", i-1, i, a, ka, b, kb)
		}
	}
}
