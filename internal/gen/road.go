package gen

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Road generates a road-network-like graph with about n nodes: near-planar,
// average degree ≈ 2.5, long geodesic diameter, and natural cut structure
// from "waterbodies" (the paper observes that Metis fails to find the
// structure that rivers and mountains induce in the European road network).
//
// Construction: take the Delaunay triangulation of jittered grid points,
// keep only each node's `keep` shortest incident edges (road intersections
// have few streets), remove edges crossing elongated random obstacles, and
// return the largest connected component. Coordinates are attached.
func Road(n int, obstacles int, seed uint64) *graph.Graph {
	r := rng.New(seed)
	pts := jitteredGridPoints(n, 0.4, r)
	tg := Delaunay(pts, seed+1)

	// Obstacles: thin rectangles ("rivers") in random orientation.
	type obstacle struct {
		cx, cy, len, wid, cos, sin float64
	}
	obs := make([]obstacle, obstacles)
	for i := range obs {
		angle := r.Float64() * math.Pi
		obs[i] = obstacle{
			cx: r.Float64(), cy: r.Float64(),
			len: 0.15 + 0.35*r.Float64(), wid: 0.004 + 0.012*r.Float64(),
			cos: math.Cos(angle), sin: math.Sin(angle),
		}
	}
	inObstacle := func(x, y float64) bool {
		for _, o := range obs {
			dx, dy := x-o.cx, y-o.cy
			u := dx*o.cos + dy*o.sin
			v := -dx*o.sin + dy*o.cos
			if math.Abs(u) < o.len/2 && math.Abs(v) < o.wid/2 {
				return true
			}
		}
		return false
	}

	// Degree thinning: per node, rank incident edges by length; an edge
	// survives if it is among the `keep` shortest at either endpoint.
	const keep = 2
	nn := tg.NumNodes()
	x, y := tg.Coords()
	type rankedEdge struct {
		to   int32
		dist float64
	}
	survive := make(map[uint64]bool)
	edges := make([]rankedEdge, 0, 16)
	for v := int32(0); v < int32(nn); v++ {
		edges = edges[:0]
		for _, u := range tg.Adj(v) {
			dx, dy := x[v]-x[u], y[v]-y[u]
			edges = append(edges, rankedEdge{u, dx*dx + dy*dy})
		}
		slices.SortFunc(edges, func(a, b rankedEdge) int {
			return cmp.Or(cmp.Compare(a.dist, b.dist), cmp.Compare(a.to, b.to))
		})
		lim := keep
		if lim > len(edges) {
			lim = len(edges)
		}
		for i := 0; i < lim; i++ {
			u := edges[i].to
			a, c := v, u
			if a > c {
				a, c = c, a
			}
			survive[uint64(a)<<32|uint64(uint32(c))] = true
		}
	}

	b := graph.NewBuilder(nn)
	for v := int32(0); v < int32(nn); v++ {
		b.SetCoord(v, x[v], y[v])
	}
	for v := int32(0); v < int32(nn); v++ {
		for _, u := range tg.Adj(v) {
			if u <= v {
				continue
			}
			if !survive[uint64(v)<<32|uint64(uint32(u))] {
				continue
			}
			// Edges crossing an obstacle are removed (sampled at midpoint
			// and quarter points, enough at road edge lengths).
			crosses := false
			for _, f := range []float64{0.25, 0.5, 0.75} {
				if inObstacle(x[v]+f*(x[u]-x[v]), y[v]+f*(y[u]-y[v])) {
					crosses = true
					break
				}
			}
			if crosses {
				continue
			}
			b.AddEdge(v, u, 1)
		}
	}
	g := b.Build()
	lc, _ := g.LargestComponent()
	return lc
}
