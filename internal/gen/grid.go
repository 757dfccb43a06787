package gen

import (
	"repro/internal/graph"
	"repro/internal/rng"
)

// Grid2D generates a w×h lattice with 4-neighbor connectivity and unit
// weights. Structured grids are the simplest FEM stand-in and useful for
// tests because optimal cuts are known analytically (a k-way strip partition
// of a w×h grid cuts (k-1)·h edges).
func Grid2D(w, h int) *graph.Graph {
	b := graph.NewBuilder(w * h)
	id := func(i, j int) int32 { return int32(i*h + j) }
	for i := 0; i < w; i++ {
		for j := 0; j < h; j++ {
			v := id(i, j)
			b.SetCoord(v, float64(i)/float64(w), float64(j)/float64(h))
			if i+1 < w {
				b.AddEdge(v, id(i+1, j), 1)
			}
			if j+1 < h {
				b.AddEdge(v, id(i, j+1), 1)
			}
		}
	}
	return b.Build()
}

// Grid3D generates an x×y×z lattice with 6-neighbor connectivity; 3D FEM
// meshes (the paper's 598a, m14b, auto) have this flavor. Lattice-index 3D
// coordinates are attached so geometric prepartitioning (RCB over the widest
// of the three axes) applies instead of the index-range fallback.
func Grid3D(x, y, z int) *graph.Graph {
	b := graph.NewBuilder(x * y * z)
	id := func(i, j, k int) int32 { return int32((i*y+j)*z + k) }
	for i := 0; i < x; i++ {
		for j := 0; j < y; j++ {
			for k := 0; k < z; k++ {
				v := id(i, j, k)
				b.SetCoord3(v, float64(i), float64(j), float64(k))
				if i+1 < x {
					b.AddEdge(v, id(i+1, j, k), 1)
				}
				if j+1 < y {
					b.AddEdge(v, id(i, j+1, k), 1)
				}
				if k+1 < z {
					b.AddEdge(v, id(i, j, k+1), 1)
				}
			}
		}
	}
	return b.Build()
}

// FEMMesh generates an unstructured 2D finite-element-style mesh: the
// Delaunay triangulation of jittered grid points with circular holes punched
// out (modelling domains with cavities, like the paper's feocean/fetooth
// instances). The result is the largest connected component and carries
// coordinates.
func FEMMesh(n int, holes int, seed uint64) *graph.Graph {
	r := rng.New(seed)
	pts := jitteredGridPoints(n, 0.45, r)
	type hole struct{ x, y, rad float64 }
	hs := make([]hole, holes)
	for i := range hs {
		hs[i] = hole{r.Float64(), r.Float64(), 0.03 + 0.07*r.Float64()}
	}
	kept := pts[:0]
	for _, p := range pts {
		inHole := false
		for _, h := range hs {
			dx, dy := p.X-h.x, p.Y-h.y
			if dx*dx+dy*dy < h.rad*h.rad {
				inHole = true
				break
			}
		}
		if !inHole {
			kept = append(kept, p)
		}
	}
	g := Delaunay(kept, seed+1)
	lc, _ := g.LargestComponent()
	return lc
}

// Banded generates a sparse-matrix-style graph resembling the structural
// symmetrized adjacency of a banded FEM stiffness matrix (the paper's
// bcsstk*/af_shell* instances): n nodes with dense diagonal blocks of size
// blk and random couplings within a band of width band. Approximately
// fill·n·band/2 band edges are added.
func Banded(n, blk, band int, fill float64, seed uint64) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	// Dense diagonal blocks (element cliques).
	for start := 0; start < n; start += blk {
		end := start + blk
		if end > n {
			end = n
		}
		for i := start; i < end; i++ {
			for j := i + 1; j < end; j++ {
				b.AddEdge(int32(i), int32(j), 1)
			}
		}
	}
	// Band couplings.
	edges := int(fill * float64(n) * float64(band) / 2)
	for e := 0; e < edges; e++ {
		i := r.Intn(n)
		off := 1 + r.Intn(band)
		j := i + off
		if j >= n {
			continue
		}
		b.AddEdge(int32(i), int32(j), 1)
	}
	// Chain consecutive blocks so the graph is connected.
	for start := blk; start < n; start += blk {
		b.AddEdge(int32(start-1), int32(start), 1)
	}
	return b.Build()
}
