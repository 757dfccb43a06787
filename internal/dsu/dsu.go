// Package dsu implements a disjoint-set union (union-find) structure with
// union by size and path halving.
//
// The partitioner uses it for the path/cycle bookkeeping of the Global Path
// Algorithm (GPA) matcher.
package dsu

// DSU is a disjoint-set forest over elements 0..n-1.
type DSU struct {
	parent []int32
	size   []int32
}

// NewIn builds a DSU over caller-provided backing slices (both of length n)
// in which every element of elems is a singleton set, so the GPA matcher can
// draw them from its per-level scratch. Only the entries of elems are
// written — a block's matcher pays for its block, not for n — and only they
// may be passed to Find and Union; nil elems means all n elements.
//
//kappa:hotpath
//kappa:invariant the arena hands out equal-length slices by construction
func NewIn(parent, size, elems []int32) *DSU {
	if len(parent) != len(size) {
		panic("dsu: NewIn slices must have equal length")
	}
	//kappa:allow hotalloc one fixed-size header; the backing arrays are caller-provided
	d := &DSU{parent: parent, size: size}
	if elems == nil {
		for i := range parent {
			parent[i] = int32(i)
			size[i] = 1
		}
		return d
	}
	for _, x := range elems {
		parent[x] = x
		size[x] = 1
	}
	return d
}

// Find returns the representative of x's set, compressing paths as it goes.
func (d *DSU) Find(x int32) int32 {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]] // path halving
		x = d.parent[x]
	}
	return x
}

// Union merges the sets of a and b and reports whether a merge happened
// (false when they were already in the same set).
func (d *DSU) Union(a, b int32) bool {
	ra, rb := d.Find(a), d.Find(b)
	if ra == rb {
		return false
	}
	if d.size[ra] < d.size[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	d.size[ra] += d.size[rb]
	return true
}
