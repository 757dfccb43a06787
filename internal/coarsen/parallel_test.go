package coarsen

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mem"
	"repro/internal/rating"
	"repro/internal/rng"
)

// graphsEqual compares the full byte-level structure of two graphs: CSR
// arrays, node weights, aggregates and coordinates.
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
		for d, wc := range want.Coords() {
			if wc[v] != got.Coords()[d][v] {
				t.Fatalf("%s: coordinates of %d differ", name, v)
			}
		}
	}
}

// testGraphs returns instances across families (with and without
// coordinates, uniform and skewed degrees), an edgeless and a one-node level,
// which leave more workers than coarse nodes, and a star whose hub is its
// last node, whose last coarse nodes end several degree spans at once.
func testGraphs() map[string]*graph.Graph {
	star := graph.NewBuilder(101)
	for v := range int32(100) {
		star.AddEdge(v, 100, 1)
	}
	return map[string]*graph.Graph{
		"star":     star.Build(),
		"grid":     gen.Grid2D(40, 25),
		"grid3d":   gen.Grid3D(10, 9, 8),
		"rgg":      gen.RGG(11, 5),
		"social":   gen.PrefAttach(3000, 5, 6),
		"road":     gen.Road(4000, 5, 7),
		"delaunay": gen.DelaunayX(11, 8),
		"edgeless": graph.NewBuilder(5).Build(),
		"one node": gen.Grid2D(1, 1),
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
		wantG, wantMap := ContractWith(g, m, Options{})
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
			want2, _ := ContractWith(wantG, m2, Options{})
			got2, _ := ContractWith(gotG, m2, Options{Workers: workers, Arena: a})
			graphsEqual(t, name+"/level2", want2, got2)
		}
	}
}

// TestContractLargeLevelsMatchSerial contracts levels of the size the
// benchmark's finest ones have on two workers, on one processor and on two:
// both must build the graph and map of the serial passes, with coordinates
// equal to the bit to the means summed in one scan over the fine nodes.
func TestContractLargeLevelsMatchSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, g := range map[string]*graph.Graph{"rgg15": gen.RGG(15, 1), "grid3d": gen.Grid3D(32, 32, 32), "rmat12": gen.RMAT(12, 16, 1)} {
		rt := rating.NewRater(rating.ExpansionStar2, g)
		m := matching.ComputeScratch(g, rt, matching.GPA, rng.New(15), 0, nil)
		want, wantMap := ContractWith(g, m, Options{})
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			got, gotMap := ContractWith(g, m, Options{Workers: 2, Arena: mem.NewArena()})
			graphsEqual(t, name, want, got)
			if !slices.Equal(gotMap, wantMap) {
				t.Fatalf("%s GOMAXPROCS=%d: fine→coarse map differs from the serial one", name, procs)
			}
			if !g.HasCoords() {
				continue
			}
			sums := make([][]float64, g.CoordDims())
			count := make([]float64, got.NumNodes())
			for d, fine := range g.Coords() {
				sums[d] = make([]float64, got.NumNodes())
				for v, x := range fine {
					sums[d][gotMap[v]] += x
				}
			}
			for _, c := range gotMap {
				count[c]++
			}
			for d, coarse := range got.Coords() {
				for c, x := range coarse {
					if math.Float64bits(x) != math.Float64bits(sums[d][c]/count[c]) {
						t.Fatalf("%s GOMAXPROCS=%d: coordinate %d of coarse node %d is %v, the fine-order mean %v", name, procs, d, c, x, sums[d][c]/count[c])
					}
				}
			}
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
	g3, _ := ContractWith(g, m, Options{})
	graphsEqual(t, "arena-vs-arena", g1, g2)
	graphsEqual(t, "arena-vs-fresh", g1, g3)
	if gets1 == 0 || reused2 <= reused1 {
		t.Fatalf("arena was not exercised: gets=%d reused=%d->%d", gets1, reused1, reused2)
	}
}

// TestContractUncheckedAggregates cross-checks the aggregates fed to
// FromCSRTrusted against a full validation pass.
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
		te += cg.WeightedDegree(v)
	}
	if cg.TotalEdgeWeight() != te/2 {
		t.Fatal("total edge weight mismatch")
	}
}
