package gen

import (
	"math"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/rng"
)

// RGG generates the paper's rggX family: a random geometric graph with
// n = 2^scale nodes at random positions in the unit square, connecting nodes
// whose Euclidean distance is below 0.55·sqrt(ln n / n). The threshold is the
// paper's choice, made so that the graph is almost connected. The returned
// graph carries coordinates.
func RGG(scale int, seed uint64) *graph.Graph {
	n := 1 << scale
	r := rng.New(seed)
	pts := uniformPoints(n, r)
	radius := 0.55 * math.Sqrt(math.Log(float64(n))/float64(n))
	return GeometricGraph(pts, radius)
}

// GeometricGraph connects every pair of points at distance below radius and
// returns the unit graph with the points as coordinates. It expects
// radius > 0 and the points in the unit square.
//
// The points are counting-sorted into a grid of square cells: an offset per
// cell, then the points' coordinates and ids in cell order. A node's row is
// the points of its own and the eight neighbouring cells within the radius,
// sorted, and is written straight into the CSR; no edge list is built. Cells
// have side radius, at most 4n+4 of them: a radius so small that it would
// make more gets cells of side max(1/c, radius) on a c×c grid of at most
// that many, and points past the grid fall into its last row or column.
// Clamping keeps cells whose points are within the radius of each other
// adjacent, so any side of at least the radius finds every edge. The cells
// split into ranges of even point counts, sized by the candidate pairs they
// inspect (graph.BuildRanges) and built on goroutines of their own
// (par.Spawn); the graph is the same for any number of them.
func GeometricGraph(pts []Point, radius float64) *graph.Graph {
	return geometricGraph(pts, radius, graph.BuildRanges)
}

// geometricGraph is GeometricGraph over as many ranges as split says for the
// candidate pairs.
func geometricGraph(pts []Point, radius float64, split func(candidates int) int) *graph.Graph {
	n := len(pts)
	nwgt := make([]int64, n)
	for i := range nwgt {
		nwgt[i] = 1
	}
	xadj := make([]int32, n+1)
	// The coordinates are allocated before the grid's temporaries, as the
	// Builder did: allocated after them, mesh_coarsen's rss_p90_mb read
	// +1.3 % (2 of 10 pairs better), flat this way (6 of 10).
	x, y := make([]float64, n), make([]float64, n)
	for v, p := range pts {
		x[v], y[v] = p.X, p.Y
	}
	if n == 0 {
		return graph.FromCSRTrusted(xadj, nil, nil, nwgt, graph.CSRAggregates{})
	}
	cg := newCellGrid(pts, radius)
	cells := len(cg.start) - 1
	ranges := make([]struct {
		lo, hi int // cells
		buf    []int32
	}, split(cg.candidates(0, cells)))
	for r := range ranges {
		ranges[r].hi = sort.Search(cells, func(k int) bool { return int(cg.start[k])*len(ranges) >= n*(r+1) })
		if r+1 < len(ranges) {
			ranges[r+1].lo = ranges[r].hi
		}
	}
	// Each range writes its points' rows, in cell order, into a buffer of
	// its own and their degrees into xadj; a prefix sum places the rows. A
	// uniform point set finds about π/9 of its candidates within the radius.
	r2 := radius * radius
	par.Spawn(len(ranges), func(_, r int) {
		rg := &ranges[r]
		rg.buf = cg.rows(rg.lo, rg.hi, r2, xadj, make([]int32, 0, cg.candidates(rg.lo, rg.hi)*2/5))
	})
	for v := 0; v < n; v++ {
		xadj[v+1] += xadj[v]
	}
	adj := make([]int32, xadj[n])
	par.Spawn(len(ranges), func(_, r int) {
		rg := &ranges[r]
		off := int32(0)
		for _, v := range cg.ids[cg.start[rg.lo]:cg.start[rg.hi]] {
			d := xadj[v+1] - xadj[v]
			copy(adj[xadj[v]:xadj[v+1]], rg.buf[off:off+d])
			off += d
		}
	})
	g := graph.FromCSRTrusted(xadj, adj, nil, nwgt, graph.CSRAggregates{
		TotalNodeWeight: int64(n), TotalEdgeWeight: int64(len(adj) / 2), MaxNodeWeight: 1,
	})
	g.SetCoords(x, y)
	return g
}

// cellGrid is a point set counting-sorted into side×side cells, cells×cells
// of them, numbered row by row: the points of cell k are pts[start[k]:
// start[k+1]], node ids ids[start[k]:start[k+1]].
type cellGrid struct {
	side  float64
	cells int
	start []int32
	pts   []Point
	ids   []int32
}

func newCellGrid(pts []Point, radius float64) *cellGrid {
	n := len(pts)
	// The cells of side radius, unless there would be more than 4n+4.
	cg := &cellGrid{side: radius}
	if c := math.Floor(1/radius) + 1; c*c <= float64(4*n+4) {
		cg.cells = int(c)
	} else {
		cg.cells = int(math.Sqrt(float64(4*n + 4)))
		cg.side = max(1/float64(cg.cells), radius)
	}
	cells := cg.cells * cg.cells
	// start[k+2] counts cell k; after the prefix sum start[k+1] is cell k's
	// cursor, and once placed start[:cells+1] is the offset array.
	cg.start = make([]int32, cells+2)
	cell := make([]int32, n)
	for v, p := range pts {
		k := int32(cg.index(p.Y)*cg.cells + cg.index(p.X))
		cell[v] = k
		cg.start[k+2]++
	}
	for k := 0; k < cells; k++ {
		cg.start[k+2] += cg.start[k+1]
	}
	cg.pts, cg.ids = make([]Point, n), make([]int32, n)
	for v, k := range cell {
		i := cg.start[k+1]
		cg.pts[i], cg.ids[i] = pts[v], int32(v)
		cg.start[k+1] = i + 1
	}
	cg.start = cg.start[:cells+1]
	return cg
}

// index is the row or column of coordinate f, clamped to the grid.
func (cg *cellGrid) index(f float64) int {
	f /= cg.side
	if !(f >= 0) {
		return 0
	}
	if f >= float64(cg.cells-1) {
		return cg.cells - 1
	}
	return int(f)
}

// window returns, for each of the rows of cells around cell k, the span of
// positions its cells in the columns around k's cover.
func (cg *cellGrid) window(k int) (spans [3][2]int32) {
	cx, cy := k%cg.cells, k/cg.cells
	x0, x1 := max(cx-1, 0), min(cx+1, cg.cells-1)
	for dy := -1; dy <= 1; dy++ {
		if row := cy + dy; row >= 0 && row < cg.cells {
			spans[dy+1] = [2]int32{cg.start[row*cg.cells+x0], cg.start[row*cg.cells+x1+1]}
		}
	}
	return spans
}

// candidates is the number of point pairs the rows of the cells [lo, hi)
// inspect: every point against every point of its window.
func (cg *cellGrid) candidates(lo, hi int) int {
	sum := 0
	for k := lo; k < hi; k++ {
		if own := int(cg.start[k+1] - cg.start[k]); own > 0 {
			for _, s := range cg.window(k) {
				sum += own * int(s[1]-s[0])
			}
		}
	}
	return sum
}

// rows appends the sorted row of every point of the cells [lo, hi), in cell
// order, to buf, records each node's degree in deg[v+1], and returns buf.
func (cg *cellGrid) rows(lo, hi int, r2 float64, deg []int32, buf []int32) []int32 {
	for k := lo; k < hi; k++ {
		spans := cg.window(k)
		size := int(spans[0][1] - spans[0][0] + spans[1][1] - spans[1][0] + spans[2][1] - spans[2][0])
		for i := cg.start[k]; i < cg.start[k+1]; i++ {
			p, row := cg.pts[i], len(buf)
			buf = slices.Grow(buf, size)
			out := buf[row : row+size]
			// The point itself splits its own row of cells.
			w := cg.near(out, 0, p, r2, spans[0][0], spans[0][1])
			w = cg.near(out, w, p, r2, spans[1][0], i)
			w = cg.near(out, w, p, r2, i+1, spans[1][1])
			w = cg.near(out, w, p, r2, spans[2][0], spans[2][1])
			graph.SortIDs(out[:w])
			buf = buf[:row+w]
			deg[cg.ids[i]+1] = int32(w)
		}
	}
	return buf
}

// near writes the ids of the points [lo, hi) within the radius of p to out
// from w on, and returns where they end. Every id is written and only a near
// one kept, so the loop takes no branch on the distance.
//
//kappa:hotpath
func (cg *cellGrid) near(out []int32, w int, p Point, r2 float64, lo, hi int32) int {
	for j := lo; j < hi; j++ {
		q := cg.pts[j]
		dx, dy := p.X-q.X, p.Y-q.Y
		out[w] = cg.ids[j]
		if dx*dx+dy*dy < r2 {
			w++
		}
	}
	return w
}
