package matching

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/mem"
)

// edgeOrder returns the scan order of GPA and Greedy over edges: rating
// descending, then the random tie descending, then (U, V) ascending, as
// keyed records whose mem.KeyedIdx is an index into edges, drawn from a (nil
// = allocate; hand it back with a.PutUint64). That is a total order on the
// edges of a graph, so the order depends on the edge set alone — not on the
// order the edges arrive in.
//
// No edge is compared with another until ratings and ties collide, and none
// is moved: the scans walk the order, reading each edge where it lies. The
// sort key is three 32-bit words — the high and low halves of the rating's
// order-preserving bit pattern, then the inverted tie — and
// mem.SortKeyedWords builds the order over 8-byte keyed records, radix-sorting
// word by word and only within the runs the previous word left tied. On
// coarser levels the first word already separates almost every edge. When
// every rating compares equal — level 0 of every unit-weight graph under the
// default rating — the two rating words are dropped and the key is the tie
// word alone: one radix sort. The rare runs tied on every word are ordered by
// endpoint ids.
//
// Ratings are finite or +Inf by construction (pinned by the rating tests),
// so NaN has no defined place in the order; it sorts by its bit pattern,
// deterministically.
//
//kappa:hotpath
func edgeOrder(edges []Edge, a *mem.Arena) []uint64 {
	n := len(edges)
	// The sort's word w is word first+w of (rating high, rating low, tie).
	words, first := 3, 0
	if equalRatings(edges) {
		words, first = 1, 2
	}
	recs, tmp := a.Uint64(n), a.Uint64(n)
	mem.SortKeyedWords(recs, tmp, words,
		func(idx int32, word int) uint32 {
			switch e := &edges[idx]; first + word {
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
	a.PutUint64(tmp)
	return recs
}

// equalRatings reports whether every edge's rating compares equal to the
// first's (-0 and +0 do; NaN never does, so it takes the general path).
//
//kappa:hotpath
func equalRatings(edges []Edge) bool {
	for i := 1; i < len(edges); i++ {
		if edges[i].R != edges[0].R {
			return false
		}
	}
	return true
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
