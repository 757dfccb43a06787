// Package gen generates the benchmark graph families of the paper's
// evaluation (Table 1): random geometric graphs (rggX), Delaunay
// triangulations (DelaunayX), FEM-style meshes, road networks, sparse-matrix
// graphs, and social networks. Since the original instances (Walshaw archive,
// Florida matrices, DIMACS road networks, DBLP/Citeseer) are not shippable,
// each generator reproduces the structural properties of its family:
// near-planarity and coordinates for the geometric/FEM/road families, power
// law degrees and community structure for the social family, banded structure
// for the matrix family.
package gen

import (
	"repro/internal/rng"
)

// Point is a 2D point in the unit square.
type Point struct {
	X, Y float64
}

// uniformPoints returns n points drawn uniformly at random from the unit
// square.
func uniformPoints(n int, r *rng.RNG) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{r.Float64(), r.Float64()}
	}
	return pts
}

// jitteredGridPoints returns roughly n points on a √n×√n grid, each
// perturbed by up to jitter·cell. Road-network generation uses this to get
// the near-uniform but irregular node placement of real street maps.
func jitteredGridPoints(n int, jitter float64, r *rng.RNG) []Point {
	side := 1
	for side*side < n {
		side++
	}
	cell := 1.0 / float64(side)
	pts := make([]Point, 0, side*side)
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			x := (float64(i)+0.5)*cell + (r.Float64()-0.5)*2*jitter*cell
			y := (float64(j)+0.5)*cell + (r.Float64()-0.5)*2*jitter*cell
			pts = append(pts, Point{clamp01(x), clamp01(y)})
		}
	}
	return pts[:n]
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
