package gen

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/graphtest"
	"repro/internal/rng"
)

// referenceGeometricGraph is GeometricGraph as it was before the counting-
// sorted grid: a map from cell to its points, cells of side radius, and an
// edge per close pair through a graph.Builder. Kept as the oracle the grid
// must agree with on every input.
func referenceGeometricGraph(pts []Point, radius float64) *graph.Graph {
	n := len(pts)
	b := graph.NewBuilder(n)
	for v, p := range pts {
		b.SetCoord(int32(v), p.X, p.Y)
	}
	if n == 0 {
		return b.Build()
	}
	cells := int(1/radius) + 1
	grid := make(map[[2]int][]int32)
	cellOf := func(p Point) [2]int {
		cx := int(p.X / radius)
		cy := int(p.Y / radius)
		if cx >= cells {
			cx = cells - 1
		}
		if cy >= cells {
			cy = cells - 1
		}
		return [2]int{cx, cy}
	}
	for v, p := range pts {
		grid[cellOf(p)] = append(grid[cellOf(p)], int32(v))
	}
	r2 := radius * radius
	for v, p := range pts {
		c := cellOf(p)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, u := range grid[[2]int{c[0] + dx, c[1] + dy}] {
					if u <= int32(v) {
						continue // each pair once
					}
					q := pts[u]
					ddx, ddy := p.X-q.X, p.Y-q.Y
					if ddx*ddx+ddy*ddy < r2 {
						b.AddEdge(int32(v), u, 1)
					}
				}
			}
		}
	}
	return b.Build()
}

// referenceRMAT is RMAT as it was before the sorted key set: a map
// deduplicates the pairs, a graph.Builder builds them, and the largest
// component is referenceLargestComponent's, through a Builder too.
func referenceRMAT(scale, edgeFactor int, seed uint64) *graph.Graph {
	n := 1 << scale
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	seen := make(map[uint64]bool)
	target := edgeFactor * n
	const a, bb, c = 0.57, 0.19, 0.19
	for e := 0; e < target; e++ {
		u, v := 0, 0
		for bit := 0; bit < scale; bit++ {
			p := r.Float64()
			switch {
			case p < a:
			case p < a+bb:
				v |= 1 << bit
			case p < a+bb+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u == v {
			continue
		}
		lo, hi := u, v
		if lo > hi {
			lo, hi = hi, lo
		}
		key := uint64(lo)<<32 | uint64(uint32(hi))
		if seen[key] {
			continue
		}
		seen[key] = true
		b.AddEdge(int32(u), int32(v), 1)
	}
	lc, _ := referenceLargestComponent(b.Build())
	return lc
}

// referenceLargestComponent is LargestComponent through graphtest's
// InducedSubgraph, which builds through a graph.Builder: the component with
// the most nodes, the first of equals, or g itself when it is connected.
func referenceLargestComponent(g *graph.Graph) (*graph.Graph, []int32) {
	comp, nc := g.ConnectedComponents()
	if nc <= 1 {
		return g, nil
	}
	size := make([]int, nc)
	for _, c := range comp {
		size[c]++
	}
	best := 0
	for c := range size {
		if size[c] > size[best] {
			best = c
		}
	}
	keep := make([]bool, len(comp))
	for v, c := range comp {
		keep[v] = int(c) == best
	}
	return graphtest.InducedSubgraph(g, keep)
}

// checkGeometric builds pts at radius on one, two and three ranges and holds
// each graph, coordinates bit for bit, to the reference's; the grid must stay
// within its 4n+4 cells.
func checkGeometric(t *testing.T, name string, pts []Point, radius float64) {
	t.Helper()
	want := referenceGeometricGraph(pts, radius)
	for _, ranges := range []int{1, 2, 3} {
		got := geometricGraph(pts, radius, func(int) int { return ranges })
		if d := graph.Diff(got, want); d != "" {
			t.Fatalf("%s (n=%d, radius %g) on %d ranges: %s", name, len(pts), radius, ranges, d)
		}
		if !got.UnitEdgeWeights() {
			t.Fatalf("%s on %d ranges: not a unit graph", name, ranges)
		}
	}
	if len(pts) > 0 {
		if cells := newCellGrid(pts, radius).cells; cells*cells > 4*len(pts)+4 {
			t.Fatalf("%s: %d×%d cells for %d points", name, cells, cells, len(pts))
		}
	}
}

func TestGeometricGraphMatchesReference(t *testing.T) {
	for _, scale := range []int{1, 6, 10, 13} {
		for seed := uint64(1); seed <= 3; seed++ {
			n := 1 << scale
			pts := uniformPoints(n, rng.New(seed))
			checkGeometric(t, fmt.Sprintf("rgg scale %d seed %d", scale, seed), pts, 0.55*math.Sqrt(math.Log(float64(n))/float64(n)))
		}
	}
	r := rng.New(9)
	uniform := uniformPoints(300, r)
	var onBounds []Point
	for i := 0; i <= 10; i++ {
		for j := 0; j <= 10; j++ {
			onBounds = append(onBounds, Point{float64(i) * 0.1, float64(j) * 0.1})
		}
	}
	onBounds = append(onBounds, Point{0, 0}, Point{1, 1}, Point{1, 0}, Point{0, 1})
	// 400 points make a grid of at most 40×40 cells, so at a radius just
	// under 1/40 the cells are wider than the radius; pairs 0.999 radius
	// apart straddle their boundaries anywhere.
	var straddling []Point
	for len(straddling) < 400 {
		x, y := 0.97*r.Float64(), r.Float64()
		straddling = append(straddling, Point{x, y}, Point{x + 0.999*0.0249, y})
	}
	for name, tc := range map[string]struct {
		pts    []Point
		radius float64
	}{
		"no points":         {nil, 0.1},
		"one point":         {[]Point{{0.5, 0.5}}, 0.1},
		"two points":        {[]Point{{0.5, 0.5}, {0.55, 0.5}}, 0.1},
		"two far points":    {[]Point{{0, 0}, {1, 1}}, 0.1},
		"coincident":        {[]Point{{0.3, 0.3}, {0.3, 0.3}, {0.3, 0.3}, {0.7, 0.2}, {0.7, 0.2}}, 0.01},
		"on cell bounds":    {onBounds, 0.1},
		"at twice a bound":  {onBounds, 0.2},
		"radius one":        {uniform[:40], 1},
		"radius above one":  {uniform[:40], 1.7},
		"tiny radius":       {append(uniform[:50:50], uniform[:50]...), 1e-9},
		"tinier than cells": {uniform, 0.03},
		"wider cells":       {straddling, 0.0249},
		"underflowing r2":   {[]Point{{0.5, 0.5}, {0.5, 0.5}}, 1e-300},
	} {
		checkGeometric(t, name, tc.pts, tc.radius)
	}
}

// FuzzGeometricGraphMatchesReference draws up to 600 points — uniform, on
// the boundaries of cells of side radius (0 and 1.0 among them), repeated —
// and a radius from 2^-40 to 2, and holds the grid to the reference on one,
// two and three ranges.
func FuzzGeometricGraphMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint16(200), uint16(30000), uint8(5), uint8(0))
	f.Add(uint64(2), uint16(2), uint16(0), uint8(0), uint8(1))
	f.Add(uint64(3), uint16(100), uint16(65535), uint8(39), uint8(2))
	f.Add(uint64(4), uint16(0), uint16(5), uint8(3), uint8(0))
	f.Add(uint64(5), uint16(500), uint16(1000), uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, n, frac uint16, exp, mode uint8) {
		radius := math.Ldexp(1+float64(frac)/65536, -int(exp%41))
		r := rng.New(seed)
		pts := make([]Point, int(n%600))
		cell := func() float64 { return min(1, float64(r.Intn(int(1/radius)+2))*radius) }
		for i := range pts {
			switch mode % 4 {
			case 0:
				pts[i] = Point{r.Float64(), r.Float64()}
			case 1: // on cell bounds
				pts[i] = Point{cell(), cell()}
			case 2: // repeats of earlier points
				if i > 0 && r.Intn(2) == 0 {
					pts[i] = pts[r.Intn(i)]
				} else {
					pts[i] = Point{r.Float64(), r.Float64()}
				}
			default: // a mix, with the square's corners
				corners := []float64{0, 1}
				pts[i] = Point{r.Float64(), cell()}
				if r.Intn(4) == 0 {
					pts[i] = Point{corners[r.Intn(2)], corners[r.Intn(2)]}
				}
			}
		}
		checkGeometric(t, "fuzz", pts, radius)
	})
}

func TestRMATMatchesReference(t *testing.T) {
	for scale := 2; scale <= 12; scale++ {
		for _, seed := range []uint64{1, 7, 42} {
			if d := graph.Diff(RMAT(scale, 10, seed), referenceRMAT(scale, 10, seed)); d != "" {
				t.Fatalf("scale %d seed %d: %s", scale, seed, d)
			}
		}
	}
}

// TestLargestComponentMatchesReference holds LargestComponent, node ids and
// coordinates bit for bit, to referenceLargestComponent, which builds the
// component through a graph.Builder: on geometric graphs whose radius leaves many components
// (unit weights, 2D coordinates) and on a random graph with weights and 3D
// coordinates.
func TestLargestComponentMatchesReference(t *testing.T) {
	r := rng.New(5)
	var cases []*graph.Graph
	for _, scale := range []int{4, 8, 11} {
		n := 1 << scale
		cases = append(cases, GeometricGraph(uniformPoints(n, r), 0.4*math.Sqrt(math.Log(float64(n))/float64(n))))
	}
	b := graph.NewBuilder(300)
	for v := int32(0); v < 300; v++ {
		b.SetCoord3(v, r.Float64(), r.Float64(), r.Float64())
		b.SetNodeWeight(v, int64(1+r.Intn(5)))
	}
	for e := 0; e < 200; e++ {
		b.AddEdge(int32(r.Intn(300)), int32(r.Intn(300)), int64(1+r.Intn(9)))
	}
	cases = append(cases, b.Build())
	for i, g := range cases {
		if components(g) == 1 {
			t.Fatalf("case %d is connected; the test wants components to drop", i)
		}
		got, gotIDs := g.LargestComponent()
		want, wantIDs := referenceLargestComponent(g)
		if d := graph.Diff(got, want); d != "" || !slices.Equal(gotIDs, wantIDs) {
			t.Fatalf("case %d (%d nodes): %s; ids equal %v", i, g.NumNodes(), d, slices.Equal(gotIDs, wantIDs))
		}
	}
}

// referenceDelaunay is Delaunay as it was before the sorted key set: the
// same triangulation, its edges deduplicated by a map and built through a
// graph.Builder with the coordinates.
func referenceDelaunay(pts []Point) *graph.Graph {
	n := len(pts)
	b := graph.NewBuilder(n)
	for v, p := range pts {
		b.SetCoord(int32(v), p.X, p.Y)
	}
	if n < 3 {
		for v := 1; v < n; v++ {
			b.AddEdge(int32(v-1), int32(v), 1)
		}
		return b.Build()
	}
	d := newTriangulator(pts)
	for _, v := range spatialOrder(pts) {
		d.insert(v)
	}
	seen := make(map[uint64]bool)
	for _, t := range d.tris {
		for i := 0; t.alive && i < 3; i++ {
			u, v := min(t.v[i], t.v[(i+1)%3]), max(t.v[i], t.v[(i+1)%3])
			if key := uint64(u)<<32 | uint64(v); v < int32(n) && !seen[key] {
				seen[key] = true
				b.AddEdge(u, v, 1)
			}
		}
	}
	return b.Build()
}

func TestDelaunayMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 10, 1000, 5000} {
		pts := uniformPoints(n, rng.New(uint64(n)))
		if d := graph.Diff(Delaunay(pts, 1), referenceDelaunay(pts)); d != "" {
			t.Fatalf("n=%d: %s", n, d)
		}
	}
}

// components returns g's number of connected components.
func components(g *graph.Graph) int {
	_, c := g.ConnectedComponents()
	return c
}
