package gen

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/rng"
)

// DelaunayX generates the paper's DelaunayX family: the Delaunay
// triangulation of 2^scale random points in the unit square. The graph
// carries coordinates.
func DelaunayX(scale int, seed uint64) *graph.Graph {
	n := 1 << scale
	pts := uniformPoints(n, rng.New(seed))
	return Delaunay(pts, seed+1)
}

// Delaunay triangulates the given point set with the incremental
// Bowyer–Watson algorithm (walking point location, spatially sorted insertion
// order) and returns the triangulation as a unit-weight graph with
// coordinates. The super-triangle is finite but far away, so the result may
// deviate from the exact Delaunay triangulation near the convex hull; this is
// irrelevant for benchmark-graph generation.
func Delaunay(pts []Point, seed uint64) *graph.Graph {
	n := len(pts)
	// lo<<32|hi per edge of every alive triangle, as RMAT collects them: the
	// 2n+1 triangles over the points and the super-triangle give at most
	// three each.
	keys := make([]uint64, 0, 3*(2*n+1))
	if n < 3 {
		for v := 1; v < n; v++ {
			keys = append(keys, uint64(v-1)<<32|uint64(v))
		}
	} else {
		d := newTriangulator(pts)
		for _, v := range spatialOrder(pts) {
			d.insert(v)
		}
		for ti := range d.tris {
			t := &d.tris[ti]
			if !t.alive {
				continue
			}
			for i := 0; i < 3; i++ {
				u, v := t.v[i], t.v[(i+1)%3]
				if u >= int32(n) || v >= int32(n) {
					continue // super-triangle vertex
				}
				keys = append(keys, uint64(min(u, v))<<32|uint64(max(u, v)))
			}
		}
		slices.Sort(keys)
		keys = slices.Compact(keys)
	}
	g := fromSortedPairs(n, keys)
	if n > 0 {
		x, y := make([]float64, n), make([]float64, n)
		for v, p := range pts {
			x[v], y[v] = p.X, p.Y
		}
		g.SetCoords(x, y)
	}
	_ = seed
	return g
}

// spatialOrder returns the insertion order: points sorted along a serpentine
// grid curve, which keeps consecutive points close so that the walking point
// location runs in near-constant amortized time.
func spatialOrder(pts []Point) []int32 {
	n := len(pts)
	side := int(math.Sqrt(float64(n))) + 1
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	cell := func(i int32) (int, int) {
		cx := int(pts[i].X * float64(side))
		cy := int(pts[i].Y * float64(side))
		if cx >= side {
			cx = side - 1
		}
		if cy >= side {
			cy = side - 1
		}
		return cx, cy
	}
	key := func(i int32) int {
		cx, cy := cell(i)
		if cy%2 == 1 {
			cx = side - 1 - cx
		}
		return cy*side + cx
	}
	slices.SortFunc(order, func(a, b int32) int {
		return cmp.Or(cmp.Compare(key(a), key(b)), cmp.Compare(a, b))
	})
	return order
}

// tri is one triangle of the triangulation. Vertices are stored in
// counter-clockwise order; nb[i] is the triangle across the edge opposite
// v[i] (-1 at the outer boundary).
type tri struct {
	v     [3]int32
	nb    [3]int32
	alive bool
}

type triangulator struct {
	px, py []float64 // positions, including 3 super vertices at the end
	tris   []tri
	last   int32 // walk hint: most recently created triangle

	// scratch buffers reused across insertions
	cavity   []int32
	inCavity map[int32]bool
	byA      map[int32]int32 // second vertex -> new triangle
	byB      map[int32]int32 // third vertex  -> new triangle
}

func newTriangulator(pts []Point) *triangulator {
	n := len(pts)
	const m = 1e3
	px := make([]float64, n+3)
	py := make([]float64, n+3)
	for i, p := range pts {
		px[i], py[i] = p.X, p.Y
	}
	// Far super-triangle containing the unit square.
	px[n], py[n] = -m, -m
	px[n+1], py[n+1] = 3*m, -m
	px[n+2], py[n+2] = -m, 3*m
	d := &triangulator{
		px: px, py: py,
		inCavity: make(map[int32]bool),
		byA:      make(map[int32]int32),
		byB:      make(map[int32]int32),
	}
	d.tris = append(d.tris, tri{
		v:     [3]int32{int32(n), int32(n + 1), int32(n + 2)},
		nb:    [3]int32{-1, -1, -1},
		alive: true,
	})
	return d
}

// orient returns a positive value if (a,b,c) is counter-clockwise.
func (d *triangulator) orient(a, b, c int32) float64 {
	return (d.px[b]-d.px[a])*(d.py[c]-d.py[a]) - (d.py[b]-d.py[a])*(d.px[c]-d.px[a])
}

// inCircum reports whether point p lies inside the circumcircle of CCW
// triangle t.
func (d *triangulator) inCircum(t *tri, p int32) bool {
	a, b, c := t.v[0], t.v[1], t.v[2]
	ax, ay := d.px[a]-d.px[p], d.py[a]-d.py[p]
	bx, by := d.px[b]-d.px[p], d.py[b]-d.py[p]
	cx, cy := d.px[c]-d.px[p], d.py[c]-d.py[p]
	det := (ax*ax+ay*ay)*(bx*cy-cx*by) -
		(bx*bx+by*by)*(ax*cy-cx*ay) +
		(cx*cx+cy*cy)*(ax*by-bx*ay)
	return det > 0
}

// locate walks from the hint triangle to a triangle containing p. The
// super-triangle encloses every input point, so failing to locate one is a
// triangulation-invariant violation, not an input error.
//
//kappa:invariant the super-triangle guarantees every point is locatable
func (d *triangulator) locate(p int32) int32 {
	t := d.last
	if !d.tris[t].alive {
		for i := len(d.tris) - 1; i >= 0; i-- {
			if d.tris[i].alive {
				t = int32(i)
				break
			}
		}
	}
	for steps := 0; steps < 4*len(d.tris)+16; steps++ {
		tr := &d.tris[t]
		moved := false
		for i := 0; i < 3; i++ {
			a, b := tr.v[(i+1)%3], tr.v[(i+2)%3]
			if d.orient(a, b, p) < 0 {
				next := tr.nb[i]
				if next < 0 {
					break // outside the super triangle: numerically impossible
				}
				t = next
				moved = true
				break
			}
		}
		if !moved {
			return t
		}
	}
	// Fallback: exhaustive scan. Reached only on pathological inputs.
	for i := range d.tris {
		tr := &d.tris[i]
		if !tr.alive {
			continue
		}
		if d.orient(tr.v[0], tr.v[1], p) >= 0 &&
			d.orient(tr.v[1], tr.v[2], p) >= 0 &&
			d.orient(tr.v[2], tr.v[0], p) >= 0 {
			return int32(i)
		}
	}
	panic("delaunay: point location failed")
}

// insert adds point p via cavity retriangulation.
func (d *triangulator) insert(p int32) {
	start := d.locate(p)

	// Grow the cavity: all triangles whose circumcircle contains p,
	// connected to start.
	d.cavity = d.cavity[:0]
	for k := range d.inCavity {
		delete(d.inCavity, k)
	}
	d.cavity = append(d.cavity, start)
	d.inCavity[start] = true
	for qi := 0; qi < len(d.cavity); qi++ {
		t := d.cavity[qi]
		for _, nbt := range d.tris[t].nb {
			if nbt >= 0 && !d.inCavity[nbt] && d.inCircum(&d.tris[nbt], p) {
				d.inCavity[nbt] = true
				d.cavity = append(d.cavity, nbt)
			}
		}
	}

	// Collect boundary edges (a, b) with their outer neighbors, kill the
	// cavity, and fan new triangles (p, a, b) around p.
	for k := range d.byA {
		delete(d.byA, k)
	}
	for k := range d.byB {
		delete(d.byB, k)
	}
	type boundaryEdge struct {
		a, b  int32
		outer int32
	}
	var boundary []boundaryEdge
	for _, t := range d.cavity {
		tr := &d.tris[t]
		for i := 0; i < 3; i++ {
			o := tr.nb[i]
			if o < 0 || !d.inCavity[o] {
				boundary = append(boundary, boundaryEdge{tr.v[(i+1)%3], tr.v[(i+2)%3], o})
			}
		}
	}
	for _, t := range d.cavity {
		d.tris[t].alive = false
	}
	for _, e := range boundary {
		nt := int32(len(d.tris))
		d.tris = append(d.tris, tri{
			v:     [3]int32{p, e.a, e.b},
			nb:    [3]int32{e.outer, -1, -1},
			alive: true,
		})
		if e.outer >= 0 {
			// Point the outer triangle back at the new one.
			out := &d.tris[e.outer]
			for j := 0; j < 3; j++ {
				oa, ob := out.v[(j+1)%3], out.v[(j+2)%3]
				if (oa == e.a && ob == e.b) || (oa == e.b && ob == e.a) {
					out.nb[j] = nt
					break
				}
			}
		}
		d.byA[e.a] = nt
		d.byB[e.b] = nt
	}
	// Stitch the fan: triangle (p,a,b) shares edge (b,p) with the new
	// triangle whose second vertex is b, and edge (p,a) with the one whose
	// third vertex is a.
	for _, e := range boundary {
		nt := d.byA[e.a]
		d.tris[nt].nb[1] = d.byA[e.b]
		d.tris[nt].nb[2] = d.byB[e.a]
	}
	d.last = int32(len(d.tris) - 1)
}
