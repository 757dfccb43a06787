package matching

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/mem"
)

// sortEdgesDesc sorts edges into the scan order of GPA and Greedy: rating
// descending, then the random tie descending, then (U, V) ascending. That is
// a total order on the edges of a graph, so the result depends on the edge
// set alone — not on the order the edges arrive in.
//
// No edge is compared with another until ratings and ties collide, and none
// is moved until the order is known. The sort key is three 32-bit words —
// the high and low halves of the rating's order-preserving bit pattern, then
// the inverted tie — and mem.SortKeyedWords builds the order over 8-byte
// keyed records in scratch from a (nil = allocate), radix-sorting word by
// word and only within the runs the previous word left tied. On a
// unit-weight level 0 the two rating words tie everywhere and cost one
// counting sweep each; on coarser levels the first word already separates
// almost every edge. The rare runs tied on all three words are ordered by
// endpoint ids, and one in-place permutation then moves each Edge
// at most once.
//
// Ratings are finite or +Inf by construction (pinned by the rating tests),
// so NaN has no defined place in the order; it sorts by its bit pattern,
// deterministically.
//
//kappa:hotpath
func sortEdgesDesc(edges []Edge, a *mem.Arena) {
	n := len(edges)
	if n < 2 {
		return
	}
	recs, tmp := a.Uint64(n), a.Uint64(n)
	mem.SortKeyedWords(recs, tmp, 3,
		func(idx int32, word int) uint32 {
			switch e := &edges[idx]; word {
			case 0:
				return uint32(ratingKeyDesc(e.R) >> 32)
			case 1:
				return uint32(ratingKeyDesc(e.R))
			default:
				return ^e.tie
			}
		},
		func(run []uint64) {
			slices.SortFunc(run, func(x, y uint64) int {
				ex, ey := &edges[mem.KeyedIdx(x)], &edges[mem.KeyedIdx(y)]
				return cmp.Or(cmp.Compare(ex.U, ey.U), cmp.Compare(ex.V, ey.V))
			})
		})
	permuteEdges(edges, recs)
	a.PutUint64(tmp)
	a.PutUint64(recs)
}

// ratingKeyDesc maps a rating to a key whose ascending unsigned order is the
// ratings' descending numeric order; -0 and +0 share one key because they
// compare equal.
//
//kappa:hotpath
func ratingKeyDesc(r float64) uint64 {
	if r == 0 {
		r = 0 // -0 → +0
	}
	b := math.Float64bits(r)
	if b>>63 != 0 {
		return b // negative: larger magnitude = larger bits = later
	}
	return ^b &^ (1 << 63) // non-negative: before every negative, larger first
}

// permuteEdges rearranges edges in place so that position i holds the edge
// order[i] indexes, following the permutation's cycles: every edge is read
// once and written once. It consumes order.
//
//kappa:hotpath
func permuteEdges(edges []Edge, order []uint64) {
	const done = ^uint64(0)
	for i := range order {
		if order[i] == done || int(mem.KeyedIdx(order[i])) == i {
			continue
		}
		hold := edges[i]
		j := i
		for {
			s := int(mem.KeyedIdx(order[j]))
			order[j] = done
			if s == i {
				edges[j] = hold
				break
			}
			edges[j] = edges[s]
			j = s
		}
	}
}
