package gen

import (
	"math"
	"testing"

	"repro/internal/graph/graphtest"
	"repro/internal/rng"
)

func TestRGGBasic(t *testing.T) {
	g := RGG(10, 1)
	if g.NumNodes() != 1024 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.HasCoords() {
		t.Fatal("RGG must carry coordinates")
	}
	// Paper's threshold makes the graph "almost connected": the largest
	// component must dominate.
	lc, _ := g.LargestComponent()
	if lc.NumNodes() < g.NumNodes()*9/10 {
		t.Fatalf("largest component only %d of %d", lc.NumNodes(), g.NumNodes())
	}
	// Every edge respects the radius.
	n := g.NumNodes()
	radius := 0.55 * math.Sqrt(math.Log(float64(n))/float64(n))
	x, y := g.Coords()[0], g.Coords()[1]
	for v := int32(0); v < int32(n); v++ {
		for _, u := range g.Adj(v) {
			dx, dy := x[v]-x[u], y[v]-y[u]
			if dx*dx+dy*dy >= radius*radius {
				t.Fatalf("edge {%d,%d} longer than radius", v, u)
			}
		}
	}
}

func TestRGGDeterministic(t *testing.T) {
	a, b := RGG(8, 5), RGG(8, 5)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	c := RGG(8, 6)
	if a.NumEdges() == c.NumEdges() && a.NumNodes() == c.NumNodes() {
		// edge counts could coincide; compare adjacency of node 0 too
		same := len(a.Adj(0)) == len(c.Adj(0))
		for i, u := range a.Adj(0) {
			if !same || i >= len(c.Adj(0)) {
				break
			}
			same = same && u == c.Adj(0)[i]
		}
		if same && a.NumEdges() == c.NumEdges() {
			t.Log("warning: different seeds produced identical node-0 adjacency (possible but unlikely)")
		}
	}
}

func TestGeometricGraphEmpty(t *testing.T) {
	g := GeometricGraph(nil, 0.1)
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatal("empty input must give empty graph")
	}
}

func TestGrid2D(t *testing.T) {
	g := Grid2D(7, 5)
	if g.NumNodes() != 35 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	// A w×h grid has w(h-1) + h(w-1) edges.
	want := 7*4 + 5*6
	if g.NumEdges() != want {
		t.Fatalf("m = %d, want %d", g.NumEdges(), want)
	}
	if components(g) != 1 {
		t.Fatal("grid must be connected")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGrid3D(t *testing.T) {
	g := Grid3D(3, 4, 5)
	if g.NumNodes() != 60 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	want := 2*4*5 + 3*3*5 + 3*4*4
	if g.NumEdges() != want {
		t.Fatalf("m = %d, want %d", g.NumEdges(), want)
	}
	if components(g) != 1 {
		t.Fatal("grid must be connected")
	}
	if g.CoordDims() != 3 {
		t.Fatalf("Grid3D must carry 3D coordinates, got %d dims", g.CoordDims())
	}
	v := int32((1*4+2)*5 + 3) // lattice point (1,2,3)
	if cs := g.Coords(); cs[0][v] != 1 || cs[1][v] != 2 || cs[2][v] != 3 {
		t.Fatalf("coords of (1,2,3) = (%g,%g,%g)", cs[0][v], cs[1][v], cs[2][v])
	}
}

func TestDelaunayProperties(t *testing.T) {
	for _, n := range []int{3, 10, 100, 2000} {
		pts := uniformPoints(n, rng.New(uint64(n)))
		g := Delaunay(pts, 1)
		if g.NumNodes() != n {
			t.Fatalf("n=%d: NumNodes=%d", n, g.NumNodes())
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if components(g) != 1 {
			t.Fatalf("n=%d: triangulation must be connected", n)
		}
		// Planarity bound: m <= 3n - 6 for n >= 3.
		if g.NumEdges() > 3*n-6 {
			t.Fatalf("n=%d: m=%d exceeds planar bound %d", n, g.NumEdges(), 3*n-6)
		}
		// A triangulation of random points has close to 3n edges.
		if n >= 100 && g.NumEdges() < 2*n {
			t.Fatalf("n=%d: only %d edges, not a triangulation", n, g.NumEdges())
		}
	}
}

func TestDelaunayTiny(t *testing.T) {
	g := Delaunay([]Point{{0.1, 0.1}, {0.9, 0.2}}, 0)
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatal("2-point triangulation must be a single edge")
	}
	g = Delaunay(nil, 0)
	if g.NumNodes() != 0 {
		t.Fatal("empty triangulation")
	}
}

func TestDelaunayX(t *testing.T) {
	g := DelaunayX(9, 3)
	if g.NumNodes() != 512 || !g.HasCoords() {
		t.Fatal("DelaunayX shape wrong")
	}
	if components(g) != 1 {
		t.Fatal("DelaunayX must be connected")
	}
}

func TestFEMMesh(t *testing.T) {
	g := FEMMesh(2000, 4, 9)
	if g.NumNodes() < 1000 {
		t.Fatalf("FEM mesh too small after holes: %d", g.NumNodes())
	}
	if components(g) != 1 {
		t.Fatal("FEMMesh must return a connected component")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, avg := graphtest.DegreeStats(g); avg < 3 || avg > 7 {
		t.Fatalf("FEM mesh avg degree %.2f out of triangulation range", avg)
	}
}

func TestBanded(t *testing.T) {
	g := Banded(1000, 8, 20, 0.5, 4)
	if g.NumNodes() != 1000 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	if components(g) != 1 {
		t.Fatal("banded graph must be connected")
	}
	// All edges stay within the band or the block.
	for v := int32(0); v < 1000; v++ {
		for _, u := range g.Adj(v) {
			d := int(v) - int(u)
			if d < 0 {
				d = -d
			}
			if d > 20 && d > 8 {
				t.Fatalf("edge {%d,%d} outside band", v, u)
			}
		}
	}
}

func TestPrefAttach(t *testing.T) {
	g := PrefAttach(3000, 4, 11)
	if g.NumNodes() != 3000 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	if components(g) != 1 {
		t.Fatal("preferential attachment graph must be connected")
	}
	// Power-law tail: max degree far above average.
	if maxDeg, avg := graphtest.DegreeStats(g); float64(maxDeg) < 5*avg {
		t.Fatalf("max degree %d not heavy-tailed (avg %.1f)", maxDeg, avg)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefAttachSmallN(t *testing.T) {
	g := PrefAttach(3, 5, 1) // d larger than n: seed clique only
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
}

func TestRMAT(t *testing.T) {
	g := RMAT(10, 8, 13)
	if g.NumNodes() == 0 || g.NumNodes() > 1024 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	if components(g) != 1 {
		t.Fatal("RMAT returns largest component, must be connected")
	}
	if maxDeg, avg := graphtest.DegreeStats(g); float64(maxDeg) < 3*avg {
		t.Fatalf("RMAT degrees not skewed: max %d avg %.1f", maxDeg, avg)
	}
}

func TestRoad(t *testing.T) {
	g := Road(4000, 6, 21)
	if g.NumNodes() < 1500 {
		t.Fatalf("road network too small: %d", g.NumNodes())
	}
	if components(g) != 1 {
		t.Fatal("road network must be connected")
	}
	if _, avg := graphtest.DegreeStats(g); avg > 4 {
		t.Fatalf("road avg degree %.2f too high (real road nets are ~2.5)", avg)
	}
	if !g.HasCoords() {
		t.Fatal("road network must carry coordinates")
	}
	if g := Road(0, 6, 21); g.NumNodes() != 0 {
		t.Fatalf("Road(0) has %d nodes", g.NumNodes())
	}
}

func TestJitteredGridPoints(t *testing.T) {
	pts := jitteredGridPoints(100, 0.4, rng.New(2))
	if len(pts) != 100 {
		t.Fatalf("len = %d", len(pts))
	}
	for _, p := range pts {
		if p.X < 0 || p.X > 1 || p.Y < 0 || p.Y > 1 {
			t.Fatalf("point outside unit square: %+v", p)
		}
	}
}

// BenchmarkGenerate times the generators of the benchmark's inputs, rgg:15
// (mesh_coarsen, socket_dist, store_serve) and rmat:12 (powerlaw_refine); its
// allocations are gated (BENCH_BASELINE.txt).
func BenchmarkGenerate(b *testing.B) {
	b.Run("rgg15", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			RGG(15, 1)
		}
	})
	b.Run("rmat12", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			RMAT(12, 10, 1)
		}
	})
}

func BenchmarkDelaunay14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		DelaunayX(14, uint64(i))
	}
}
