package matching

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/rating"
	"repro/internal/rng"
)

// edgeOrder is the scan order of every edge — liveScan's order with nothing
// retired — as keyed records whose mem.KeyedIdx is an index into edges, by
// one sort of the whole set, drawn from a (nil = allocate; hand it back with
// a.PutUint64). It is the reference the live scan is held to.
func edgeOrder(edges []Edge, a *mem.Arena) []uint64 {
	s := liveScan{edges: edges, words: 3}
	if equalRatings(edges) {
		s.first, s.words = 2, 1
	}
	recs, tmp := a.Uint64(len(edges)), a.Uint64(len(edges))
	mem.SortKeyedWords(recs, tmp, s.words, s.word, s.byEnds)
	a.PutUint64(tmp)
	return recs
}

// equalRatings reports whether every edge's rating compares equal to the
// first's (-0 and +0 do; NaN never does, so it takes the general path).
func equalRatings(edges []Edge) bool {
	for i := 1; i < len(edges); i++ {
		if edges[i].R != edges[0].R {
			return false
		}
	}
	return true
}

// compareEdges is the edge order written as a comparator: rating descending,
// tie descending, endpoints ascending.
func compareEdges(a, b Edge) int {
	return cmp.Or(
		cmp.Compare(b.R, a.R),
		cmp.Compare(b.tie, a.tie),
		cmp.Compare(a.U, b.U),
		cmp.Compare(a.V, b.V),
	)
}

// sortEdgesReference is the comparison sort edgeOrder replaced, with the
// full four-key order; the radix kernel is tested against it.
func sortEdgesReference(edges []Edge) { slices.SortFunc(edges, compareEdges) }

// sortEdgesDesc sorts edges into edgeOrder's order.
func sortEdgesDesc(edges []Edge, a *mem.Arena) {
	order := edgeOrder(edges, a)
	sorted := make([]Edge, len(edges))
	for i, o := range order {
		sorted[i] = edges[mem.KeyedIdx(o)]
	}
	copy(edges, sorted)
	a.PutUint64(order)
}

// edgeCase builds n edges with distinct endpoints — so the four-key order
// has no ties at all — ratings drawn from ratings and ties below tieRange.
func edgeCase(n int, ratings []float64, tieRange uint64, r *rng.RNG) []Edge {
	edges := make([]Edge, n)
	for i := range edges {
		edges[i] = Edge{
			U: int32(i / 7), V: int32(i),
			R:   ratings[r.Uint64()%uint64(len(ratings))],
			tie: uint32(r.Uint64() % tieRange),
		}
	}
	// Present them in a scrambled order.
	for i := len(edges) - 1; i > 0; i-- {
		j := int(r.Uint64() % uint64(i+1))
		edges[i], edges[j] = edges[j], edges[i]
	}
	return edges
}

func TestSortEdgesMatchesReference(t *testing.T) {
	denormal := math.Float64frombits(1)
	manyRatings := make([]float64, 1000)
	r := rng.New(11)
	for i := range manyRatings {
		// Ratios of small integers, the shape ratings have on coarse levels;
		// many agree in their high word and differ in the low one.
		manyRatings[i] = float64(1+r.Uint64()%40) / float64(1+r.Uint64()%40)
	}
	ratingSets := map[string][]float64{
		"all equal":    {1},
		"two distinct": {0.5, 2},
		"signed zeros": {0, math.Copysign(0, -1), 1},
		"only zeros":   {0, math.Copysign(0, -1)},
		"denormals":    {denormal, 2 * denormal, 0, math.SmallestNonzeroFloat64 * 3},
		"infinity":     {math.Inf(1), math.MaxFloat64, 1},
		"negatives":    {-1, -2.5, 0, 3},
		"low word":     {1, math.Nextafter(1, 2), math.Nextafter(1, 0)},
		"ratios":       manyRatings,
	}
	arena := mem.NewArena()
	for name, ratings := range ratingSets {
		for _, n := range []int{0, 1, 2, 255, 256, 257, 1<<16 + 1} {
			// A full tie range and a range of 3: heavy (R, tie) duplicates
			// that only the endpoints separate.
			for _, tieRange := range []uint64{1 << 32, 3} {
				edges := edgeCase(n, ratings, tieRange, r)
				want := slices.Clone(edges)
				sortEdgesReference(want)
				var a *mem.Arena
				if n%2 == 1 {
					a = arena
				}
				sortEdgesDesc(edges, a)
				if i := firstDiff(edges, want); i >= 0 {
					t.Fatalf("%s, n=%d, ties<%d: position %d holds %+v, want %+v", name, n, tieRange, i, edges[i], want[i])
				}
			}
		}
	}
}

// TestSortEdgesOneDistinctRating puts one distinct rating at every position
// of an otherwise all-equal edge set: the equal-ratings shortcut must see it
// wherever it lies, the last position included.
func TestSortEdgesOneDistinctRating(t *testing.T) {
	r := rng.New(3)
	base := edgeCase(300, []float64{1}, 1<<32, r)
	for p := range base {
		for _, odd := range []float64{2, 0.5} {
			edges := slices.Clone(base)
			edges[p].R = odd
			want := slices.Clone(edges)
			sortEdgesReference(want)
			sortEdgesDesc(edges, nil)
			if i := firstDiff(edges, want); i >= 0 {
				t.Fatalf("rating %v at %d: position %d holds %+v, want %+v", odd, p, i, edges[i], want[i])
			}
		}
	}
}

// firstDiff returns the first index at which a and b differ (NaN-free edges
// compare with ==), or -1.
func firstDiff(a, b []Edge) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestSortEdgesIsATotalOrder pins the bug the radix kernel fixed: edges of
// equal rating whose 32-bit ties collide used to come out in whatever order
// the comparison sort's pivots left them, i.e. depending on the input
// permutation. Every permutation of one edge set must sort to one sequence.
func TestSortEdgesIsATotalOrder(t *testing.T) {
	// Six edges, three (R, tie) classes of two: 720 permutations.
	base := []Edge{
		{U: 0, V: 1, R: 1, tie: 7},
		{U: 2, V: 3, R: 1, tie: 7},
		{U: 0, V: 2, R: 1, tie: 9},
		{U: 0, V: 3, R: 1, tie: 9},
		{U: 1, V: 2, R: 2, tie: 7},
		{U: 1, V: 3, R: 2, tie: 7},
	}
	want := slices.Clone(base)
	sortEdgesReference(want)
	perm := slices.Clone(base)
	var permute func(k int)
	permute = func(k int) {
		if k == len(perm) {
			got := slices.Clone(perm)
			sortEdgesDesc(got, nil)
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("input %+v sorted to %+v at %d, want %+v", perm, got[i], i, want[i])
			}
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			permute(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	permute(0)

	// The same on a level-0-sized class structure: all ratings equal, ties
	// from a range small enough to collide everywhere, random shuffles.
	r := rng.New(5)
	big := edgeCase(5000, []float64{1}, 16, r)
	wantBig := slices.Clone(big)
	sortEdgesReference(wantBig)
	for round := 0; round < 10; round++ {
		for i := len(big) - 1; i > 0; i-- {
			j := int(r.Uint64() % uint64(i+1))
			big[i], big[j] = big[j], big[i]
		}
		got := slices.Clone(big)
		sortEdgesDesc(got, nil)
		if i := firstDiff(got, wantBig); i >= 0 {
			t.Fatalf("shuffle %d: position %d holds %+v, want %+v", round, i, got[i], wantBig[i])
		}
	}
}

// FuzzSortEdgesMatchesReference drives the kernel with edge sets decoded
// from bytes: three bytes per edge pick the rating (a small alphabet, so
// equal ratings and equal high words are common) and the tie.
func FuzzSortEdgesMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 2, 3})
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"))
	alphabet := []float64{1, 1, 0.5, 2, math.Nextafter(1, 2), 0, math.Copysign(0, -1), math.Inf(1), 1e-310, 2.0 / 3}
	f.Fuzz(func(t *testing.T, data []byte) {
		edges := make([]Edge, len(data)/3)
		for i := range edges {
			b := data[3*i : 3*i+3]
			edges[i] = Edge{
				U: int32(i % 5), V: int32(i),
				R:   alphabet[int(b[0])%len(alphabet)],
				tie: uint32(b[1])<<24 | uint32(b[2]&3),
			}
		}
		want := slices.Clone(edges)
		sortEdgesReference(want)
		sortEdgesDesc(edges, nil)
		if i := firstDiff(edges, want); i >= 0 {
			t.Fatalf("position %d holds %+v, want %+v", i, edges[i], want[i])
		}
	})
}

// levelZeroEdges returns the candidate edges of g as the matcher builds them
// on the finest level under rating rf: those a whole-graph local phase
// collects (Greedy's scan leaves them where they lie).
func levelZeroEdges(g *graph.Graph, rf rating.Func) []Edge {
	var edges []Edge
	localPhase(g, rating.NewRater(rf, g), Greedy, rng.New(1), nil, make([]int32, g.NumNodes()), 0, &edges, NewEmpty(g.NumNodes()), nil, 0, nil)
	return edges
}

// BenchmarkEdgeScan times GPA's scan of one level's edge set — bucketing,
// dropping the retired edges, ordering the live ones, selecting paths and
// solving them — on two shapes: a unit-weight mesh level under the default
// rating (every rating equal, the order is all ties) and a heavy-tailed graph
// under the degree-dependent InnerOuter rating (many distinct ratings, heavy
// duplicates among them).
func BenchmarkEdgeScan(b *testing.B) {
	cases := []struct {
		name string
		g    *graph.Graph
		rf   rating.Func
	}{
		{"rgg15_level0", gen.RGG(15, 1), rating.ExpansionStar2},
		{"rmat12_innerouter", gen.RMAT(12, 10, 1), rating.InnerOuter},
	}
	for _, c := range cases {
		edges := levelZeroEdges(c.g, c.rf)
		b.Run(c.name, func(b *testing.B) {
			arena := mem.NewArena()
			m := NewEmpty(c.g.NumNodes())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gpaEdges(c.g, nil, edges, m, nil, 0, arena)
			}
		})
	}
}
