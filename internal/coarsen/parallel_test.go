package coarsen

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mem"
	"repro/internal/rating"
	"repro/internal/rng"
)

// graphsEqual compares the full byte-level structure of two graphs: CSR
// arrays, node weights, aggregates, weighted degrees and coordinates.
func graphsEqual(t *testing.T, name string, want, got *graph.Graph) {
	t.Helper()
	if want.NumNodes() != got.NumNodes() || want.NumEdges() != got.NumEdges() {
		t.Fatalf("%s: size mismatch: (%d,%d) vs (%d,%d)", name,
			want.NumNodes(), want.NumEdges(), got.NumNodes(), got.NumEdges())
	}
	if want.TotalNodeWeight() != got.TotalNodeWeight() ||
		want.TotalEdgeWeight() != got.TotalEdgeWeight() ||
		want.MaxNodeWeight() != got.MaxNodeWeight() {
		t.Fatalf("%s: aggregate mismatch", name)
	}
	for v := int32(0); v < int32(want.NumNodes()); v++ {
		if want.NodeWeight(v) != got.NodeWeight(v) {
			t.Fatalf("%s: node weight of %d differs", name, v)
		}
		if want.WeightedDegrees()[v] != got.WeightedDegrees()[v] {
			t.Fatalf("%s: weighted degree of %d differs", name, v)
		}
		wa, ga := want.Adj(v), got.Adj(v)
		ww, gw := want.AdjWeights(v), got.AdjWeights(v)
		if len(wa) != len(ga) {
			t.Fatalf("%s: degree of %d differs", name, v)
		}
		for i := range wa {
			if wa[i] != ga[i] || ww[i] != gw[i] {
				t.Fatalf("%s: adjacency of %d differs at slot %d (order must match the serial contraction exactly)", name, v, i)
			}
		}
		if want.HasCoords() != got.HasCoords() {
			t.Fatalf("%s: coordinate presence differs", name)
		}
		if want.HasCoords() {
			wx, wy, wz := want.Coord3(v)
			gx, gy, gz := got.Coord3(v)
			if wx != gx || wy != gy || wz != gz {
				t.Fatalf("%s: coordinates of %d differ", name, v)
			}
		}
	}
}

// testGraphs returns instances across families (with and without
// coordinates, uniform and skewed degrees).
func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"grid":     gen.Grid2D(40, 25),
		"grid3d":   gen.Grid3D(10, 9, 8),
		"rgg":      gen.RGG(11, 5),
		"social":   gen.PrefAttach(3000, 5, 6),
		"road":     gen.Road(4000, 5, 7),
		"delaunay": gen.DelaunayX(11, 8),
	}
}

// TestContractParallelMatchesSerial pins the determinism contract of the
// two-pass contraction: for every worker count the coarse graph must be
// byte-identical to the serial contraction — same adjacency order, same
// weights, same coordinates — across two contraction levels.
func TestContractParallelMatchesSerial(t *testing.T) {
	for name, g := range testGraphs() {
		rt := rating.NewRater(rating.ExpansionStar2, g)
		m := matching.ComputeScratch(g, rt, matching.GPA, rng.New(42), 0, nil)
		wantG, wantMap := Contract(g, m)
		for _, workers := range []int{2, 3, 4, 7, 64} {
			a := mem.NewArena()
			gotG, gotMap := ContractWith(g, m, Options{Workers: workers, Arena: a})
			graphsEqual(t, name, wantG, gotG)
			for v := range wantMap {
				if wantMap[v] != gotMap[v] {
					t.Fatalf("%s workers=%d: fine2coarse differs at %d", name, workers, v)
				}
			}
			// Second level on the contracted graph, reusing the arena.
			rt2 := rating.NewRater(rating.ExpansionStar2, wantG)
			m2 := matching.ComputeScratch(wantG, rt2, matching.GPA, rng.New(43), 0, nil)
			want2, _ := Contract(wantG, m2)
			got2, _ := ContractWith(gotG, m2, Options{Workers: workers, Arena: a})
			graphsEqual(t, name+"/level2", want2, got2)
		}
	}
}

// TestContractArenaReuse runs the same contraction twice on one arena and a
// third time without an arena; all three must agree, and the second run must
// actually reuse buffers.
func TestContractArenaReuse(t *testing.T) {
	g := gen.RGG(12, 9)
	rt := rating.NewRater(rating.ExpansionStar2, g)
	m := matching.ComputeScratch(g, rt, matching.GPA, rng.New(1), 0, nil)
	a := mem.NewArena()
	g1, _ := ContractWith(g, m, Options{Arena: a})
	st1 := a.Stats()
	gets1, reused1 := st1.Borrows, st1.Reused
	g2, _ := ContractWith(g, m, Options{Arena: a})
	reused2 := a.Stats().Reused
	g3, _ := Contract(g, m)
	graphsEqual(t, "arena-vs-arena", g1, g2)
	graphsEqual(t, "arena-vs-fresh", g1, g3)
	if gets1 == 0 || reused2 <= reused1 {
		t.Fatalf("arena was not exercised: gets=%d reused=%d->%d", gets1, reused1, reused2)
	}
}

// TestContractUncheckedAggregates cross-checks the aggregates fed to
// FromCSRTrusted and the emitted weighted degrees against a full validation
// pass.
func TestContractUncheckedAggregates(t *testing.T) {
	g := gen.PrefAttach(2000, 4, 3)
	rt := rating.NewRater(rating.ExpansionStar2, g)
	m := matching.ComputeScratch(g, rt, matching.GPA, rng.New(2), 0, nil)
	cg, _ := ContractWith(g, m, Options{Workers: 4, Arena: mem.NewArena()})
	if err := cg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cg.TotalNodeWeight() != g.TotalNodeWeight() {
		t.Fatal("contraction must preserve total node weight")
	}
	var te int64
	for v := int32(0); v < int32(cg.NumNodes()); v++ {
		if cg.WeightedDegrees()[v] != cg.WeightedDegree(v) {
			t.Fatalf("emitted weighted degree of %d is wrong", v)
		}
		te += cg.WeightedDegree(v)
	}
	if cg.TotalEdgeWeight() != te/2 {
		t.Fatal("total edge weight mismatch")
	}
}
