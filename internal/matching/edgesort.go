package matching

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"repro/internal/mem"
)

// The scan order of GPA and Greedy over edges is rating descending, then the
// random tie descending, then (U, V) ascending. That is a total order on the
// edges of a graph, so it depends on the edge set alone — not on the order
// the edges arrive in.
//
// Most of a scan is skipped: once an endpoint of an edge holds two path
// edges (GPA) or a partner (Greedy), the edge can never be selected, and on
// R-MAT levels that retires nine edges in ten before the scan reaches them.
// So the order is built as the scan goes. liveScan splits the edges by the
// leading bits of their sort key into buckets, in one counting pass, as
// pq.GainQueue.Seal splits a band, and a scan reaches the buckets in key
// order: it drops
// from a bucket the edges already retired, orders what is left, and visits
// it. Retirement is monotone — an edge retired when its bucket is reached
// would have been skipped when its turn came — so the scan visits the live
// edges in exactly the order of the full sort, and selects what a scan of
// every edge would.
//
// A bucket is ordered by a key of three 32-bit words — the high and low
// halves of the rating's order-preserving bit pattern, then the inverted
// tie — with mem.SortKeyedRecords, which radix-sorts 8-byte keyed records
// word by word and only within the runs the previous word left tied. When
// every rating has one key — level 0 of every unit-weight graph under the
// default rating — the two rating words are dropped and the key is the tie
// word alone. The rare runs tied on every word are ordered by endpoint ids.
//
// Ratings are finite or +Inf by construction (pinned by the rating tests),
// so NaN has no defined place in the order; it sorts by its bit pattern,
// deterministically.

// A scan's buckets hold about bucketKeys edges each, in at most
// 2^maxBucketBits buckets: more would make the bucketing scatter miss the
// cache (a radix pass keeps to 256 streams for the same reason), and a scan
// that reaches a bucket of a few hundred edges drops almost as many as one
// that reaches them one by one.
const (
	bucketKeys    = 4
	maxBucketBits = 8
)

// liveScan hands out the scan order of edges a bucket at a time.
type liveScan struct {
	edges []Edge
	// recs holds the records (mem.Keyed: key word 0, edge index) bucket by
	// bucket; bucket b ends at ends[b] and starts where bucket b−1 ends. tmp
	// is sort scratch for the largest bucket.
	recs, tmp []uint64
	ends      []int32
	b         int
	// The key is words words from word first of (rating high, rating low,
	// tie).
	first, words int
}

// newLiveScan buckets edges, drawing the scan's arrays from a (nil =
// allocate; hand them back with release).
//
//kappa:hotpath
func newLiveScan(edges []Edge, a *mem.Arena) liveScan {
	s := liveScan{edges: edges, words: 3}
	n := len(edges)
	if n == 0 {
		return s
	}
	lo, hi := ^uint64(0), uint64(0)
	for i := range edges {
		k := ratingKeyDesc(edges[i].R)
		lo, hi = min(lo, k), max(hi, k)
	}
	span := bits.Len64(hi - lo)
	if lo == hi {
		// Every rating is equal: the key is the tie alone, 32 bits.
		s.first, s.words, lo, span = 2, 1, 0, 32
	}
	nb := min(bits.Len(uint(n/bucketKeys)), maxBucketBits, span)
	shift := uint(span - nb)
	s.ends = a.Int32(1 << nb)
	clear(s.ends)
	for i := range edges {
		s.ends[(s.lead(&edges[i])-lo)>>shift]++
	}
	var at, most int32
	for b, c := range s.ends {
		s.ends[b] = at
		at += c
		most = max(most, c)
	}
	s.recs, s.tmp = a.Uint64(n), a.Uint64(int(most))
	for i := range edges {
		e := &edges[i]
		b := (s.lead(e) - lo) >> shift
		s.recs[s.ends[b]] = mem.Keyed(edgeWord(e, s.first), int32(i))
		s.ends[b]++
	}
	return s
}

// lead is the key the buckets split: the rating's order-preserving bits, or
// the inverted tie when every rating is equal.
//
//kappa:hotpath
func (s *liveScan) lead(e *Edge) uint64 {
	if s.first == 2 {
		return uint64(^e.tie)
	}
	return ratingKeyDesc(e.R)
}

// more reports whether a bucket is left.
func (s *liveScan) more() bool { return s.b < len(s.ends) }

// next returns the next bucket's records, unordered (mem.KeyedIdx is the
// edge's index). The caller keeps the live ones in a prefix of it and hands
// that to order.
func (s *liveScan) next() []uint64 {
	var lo int32
	if s.b > 0 {
		lo = s.ends[s.b-1]
	}
	s.b++
	return s.recs[lo:s.ends[s.b-1]]
}

// order sorts live, records of one bucket, into scan order and returns it.
//
//kappa:hotpath
func (s *liveScan) order(live []uint64) []uint64 {
	mem.SortKeyedRecords(live, s.tmp, s.words, s.word, s.byEnds)
	return live
}

// word is word w of edge idx's key.
//
//kappa:hotpath
func (s *liveScan) word(idx int32, w int) uint32 {
	return edgeWord(&s.edges[idx], s.first+w)
}

// byEnds orders a run of records tied on every key word by endpoint ids.
func (s *liveScan) byEnds(run []uint64) {
	slices.SortFunc(run, func(x, y uint64) int {
		ex, ey := &s.edges[mem.KeyedIdx(x)], &s.edges[mem.KeyedIdx(y)]
		return cmp.Or(cmp.Compare(ex.U, ey.U), cmp.Compare(ex.V, ey.V))
	})
}

// release hands the scan's arrays back to a.
func (s *liveScan) release(a *mem.Arena) {
	a.PutUint64(s.tmp)
	a.PutUint64(s.recs)
	a.PutInt32(s.ends)
}

// edgeWord is word w of e's sort key: 0 and 1 the high and low halves of
// the rating's order-preserving bits, 2 the inverted tie.
//
//kappa:hotpath
func edgeWord(e *Edge, w int) uint32 {
	switch w {
	case 0:
		return uint32(ratingKeyDesc(e.R) >> 32)
	case 1:
		return uint32(ratingKeyDesc(e.R))
	default:
		return ^e.tie
	}
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
