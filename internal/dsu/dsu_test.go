package dsu

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func newDSU(n int) *DSU { return NewIn(make([]int32, n), make([]int32, n), nil) }

func TestSingletons(t *testing.T) {
	d := newDSU(5)
	for i := int32(0); i < 5; i++ {
		if d.Find(i) != i {
			t.Fatalf("Find(%d) = %d before any union", i, d.Find(i))
		}
	}
}

func TestUnionFind(t *testing.T) {
	d := newDSU(6)
	if !d.Union(0, 1) {
		t.Fatal("first union reported no merge")
	}
	if d.Union(1, 0) {
		t.Fatal("repeated union reported a merge")
	}
	d.Union(2, 3)
	d.Union(0, 2)
	if d.Find(1) != d.Find(3) {
		t.Fatal("1 and 3 should be connected")
	}
	if d.Find(0) == d.Find(4) {
		t.Fatal("0 and 4 should be disjoint")
	}
}

// TestNewInTouchesOnlyItsElements builds a DSU over a subset of stale
// backing slices: the subset's entries act as fresh singletons and every
// other entry keeps its stale value.
func TestNewInTouchesOnlyItsElements(t *testing.T) {
	const n, stale = 8, -7
	parent, size := make([]int32, n), make([]int32, n)
	for i := range parent {
		parent[i], size[i] = stale, stale
	}
	elems := []int32{1, 4, 5, 7}
	d := NewIn(parent, size, elems)
	for _, x := range elems {
		if d.Find(x) != x {
			t.Fatalf("Find(%d) = %d before any union", x, d.Find(x))
		}
	}
	d.Union(1, 5)
	d.Union(7, 5)
	if d.Find(1) != d.Find(7) || d.Find(4) == d.Find(1) {
		t.Fatal("unions over the subset disagree with the sets formed")
	}
	for _, x := range []int32{0, 2, 3, 6} {
		if parent[x] != stale || size[x] != stale {
			t.Fatalf("entry %d outside the subset written: parent %d, size %d", x, parent[x], size[x])
		}
	}
}

// TestAgainstNaive cross-checks DSU against a brute-force reachability model
// under random union sequences.
func TestAgainstNaive(t *testing.T) {
	r := rng.New(1234)
	f := func(seed uint16) bool {
		rr := r.Split(uint64(seed))
		const n = 24
		d := newDSU(n)
		// naive: label array, merging relabels.
		label := make([]int, n)
		for i := range label {
			label[i] = i
		}
		for step := 0; step < 40; step++ {
			a, b := int32(rr.Intn(n)), int32(rr.Intn(n))
			la, lb := label[a], label[b]
			if d.Union(a, b) != (la != lb) {
				return false
			}
			if la != lb {
				for i := range label {
					if label[i] == lb {
						label[i] = la
					}
				}
			}
		}
		// compare equivalence relations
		for i := int32(0); i < n; i++ {
			for j := int32(0); j < n; j++ {
				if (d.Find(i) == d.Find(j)) != (label[i] == label[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUnionFind(b *testing.B) {
	r := rng.New(7)
	const n = 1 << 16
	for i := 0; i < b.N; i++ {
		d := newDSU(n)
		for j := 0; j < n; j++ {
			d.Union(int32(r.Intn(n)), int32(r.Intn(n)))
		}
	}
}
