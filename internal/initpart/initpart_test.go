package initpart

import (
	"strings"
	"testing"

	"repro/internal/coarsen"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graph/graphtest"
	"repro/internal/matching"
	"repro/internal/part"
	"repro/internal/rating"
	"repro/internal/rng"
)

func checkPartition(t *testing.T, g *graph.Graph, k int, eps float64, block []int32) *part.Partition {
	t.Helper()
	p := part.FromBlocks(g, k, eps, block)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every block must be non-empty for k <= n.
	seen := make([]bool, k)
	for _, b := range block {
		seen[b] = true
	}
	for b, s := range seen {
		if !s {
			t.Fatalf("block %d is empty", b)
		}
	}
	return p
}

func TestPartitionGridAllK(t *testing.T) {
	g := gen.Grid2D(16, 16)
	for _, k := range []int{1, 2, 3, 4, 8, 16} {
		for _, eng := range []Engine{EngineScotch, EnginePMetis} {
			block := Partition(g, k, 0.03, eng, 7)
			p := checkPartition(t, g, k, 0.03, block)
			if !p.Feasible() {
				t.Errorf("k=%d %v: infeasible (max %d > Lmax %d)", k, eng, p.MaxBlockWeight(), p.Lmax())
			}
			if k > 1 && p.Cut() == 0 {
				t.Errorf("k=%d %v: zero cut on connected graph", k, eng)
			}
		}
	}
}

func TestBisectionQualityOnGrid(t *testing.T) {
	// A 16x16 grid has an optimal bisection cut of 16; greedy growing plus
	// FM should land well under 2x of that.
	g := gen.Grid2D(16, 16)
	block := Partition(g, 2, 0.03, EngineScotch, 3)
	p := checkPartition(t, g, 2, 0.03, block)
	if p.Cut() > 32 {
		t.Fatalf("bisection cut %d, want <= 32 (opt 16)", p.Cut())
	}
}

func TestScotchBeatsOrMatchesPMetis(t *testing.T) {
	// Averaged over seeds, the Scotch-like engine must not lose to the
	// pMetis-like engine (the paper reports pMetis ~4.7% worse).
	var scotch, pmetis int64
	for _, g := range []*graph.Graph{gen.RGG(11, 5), gen.DelaunayX(10, 2)} {
		for seed := uint64(0); seed < 8; seed++ {
			bs := Partition(g, 8, 0.03, EngineScotch, seed)
			bp := Partition(g, 8, 0.03, EnginePMetis, seed)
			scotch += part.FromBlocks(g, 8, 0.03, bs).Cut()
			pmetis += part.FromBlocks(g, 8, 0.03, bp).Cut()
		}
	}
	// Averaged over seeds and instances the high-quality engine must win;
	// allow 2% noise.
	if float64(scotch) > 1.02*float64(pmetis) {
		t.Fatalf("scotch-like total cut %d > pmetis-like %d", scotch, pmetis)
	}
}

func TestRepeatPicksBest(t *testing.T) {
	g := gen.RGG(10, 2)
	_, cut1 := Repeat(g, 4, 0.03, EngineScotch, 1, 9)
	blockN, cutN := Repeat(g, 4, 0.03, EngineScotch, 6, 9)
	if cutN > cut1 {
		t.Fatalf("best-of-6 cut %d worse than single cut %d", cutN, cut1)
	}
	p := checkPartition(t, g, 4, 0.03, blockN)
	if p.Cut() != cutN {
		t.Fatalf("reported cut %d != actual %d", cutN, p.Cut())
	}
}

func TestPartitionDisconnected(t *testing.T) {
	// Two disjoint grids; bisection must handle the disconnected case via
	// regrowth.
	b := graph.NewBuilder(32)
	add := func(off int32) {
		for i := int32(0); i < 4; i++ {
			for j := int32(0); j < 4; j++ {
				v := off + i*4 + j
				if i < 3 {
					b.AddEdge(v, v+4, 1)
				}
				if j < 3 {
					b.AddEdge(v, v+1, 1)
				}
			}
		}
	}
	add(0)
	add(16)
	g := b.Build()
	block := Partition(g, 2, 0.03, EngineScotch, 1)
	p := checkPartition(t, g, 2, 0.03, block)
	if !p.Feasible() {
		t.Fatalf("infeasible on disconnected input")
	}
	// The two components are a perfect bisection; a decent engine finds the
	// zero cut.
	if p.Cut() != 0 {
		t.Logf("note: nonzero cut %d on separable input", p.Cut())
	}
}

func TestPartitionWeightedNodes(t *testing.T) {
	b := graph.NewBuilder(8)
	for v := int32(0); v < 7; v++ {
		b.AddEdge(v, v+1, 1)
	}
	b.SetNodeWeight(0, 10) // one heavy node
	g := b.Build()
	block := Partition(g, 2, 0.03, EngineScotch, 4)
	p := checkPartition(t, g, 2, 0.03, block)
	if !p.Feasible() {
		t.Fatalf("infeasible with weighted nodes: max %d Lmax %d", p.MaxBlockWeight(), p.Lmax())
	}
}

func TestPartitionKEqualsN(t *testing.T) {
	g := gen.Grid2D(3, 3)
	block := Partition(g, 9, 0.03, EngineScotch, 2)
	p := checkPartition(t, g, 9, 0.03, block)
	if p.MaxBlockWeight() != 1 {
		t.Fatalf("k=n should give singleton blocks, max weight %d", p.MaxBlockWeight())
	}
}

func TestGrowBisectionTargets(t *testing.T) {
	g := gen.Grid2D(10, 10)
	side := newBisector(EngineScotch.params(), 0.03, 6).growBisection(g, 50)
	var grown int64
	for _, s := range side {
		if s == 0 {
			grown++
		}
	}
	// Growth stops as soon as the target is reached; with unit weights it
	// lands exactly on it.
	if grown != 50 {
		t.Fatalf("grown weight %d, want 50", grown)
	}
}

// TestSplitMatchesSubgraph holds graph.Graph.Split, which writes every
// bisection's two sides, to the plain induced subgraph of graphtest, built
// through graph.Builder: the same rows in the same (ascending) order, node
// weights and aggregates, and each node's number in its side, which
// recursiveBisect maps original ids through. The inputs are unit graphs
// (rmat, a preferential-attachment graph, one edge), a weighted contracted
// graph, whose rows are in first-encounter order, and, on every graph, sides
// that leave one of them empty; none carries coordinates, which Split drops.
// A unit graph must split into unit graphs.
func TestSplitMatchesSubgraph(t *testing.T) {
	rmat := gen.RMAT(9, 8, 3)
	coarse, _ := coarsen.Contract(rmat, matching.ComputeScratch(rmat, rating.NewRater(rating.Weight, rmat), matching.SHEM, rng.New(1), 0, nil))
	if graphtest.RowsAscend(coarse) || coarse.UnitEdgeWeights() {
		t.Fatal("the contracted graph has sorted rows or unit weights; the test wants one that needs the weighted row sort")
	}
	r := rng.New(8)
	var rows graph.RowSorter
	for _, g := range []*graph.Graph{rmat, coarse, gen.PrefAttach(300, 3, 5), gen.ErdosRenyi(2, 1, 1)} {
		n := g.NumNodes()
		for _, draw := range []func() byte{func() byte { return byte(r.Intn(2)) }, func() byte { return 0 }, func() byte { return 1 }} {
			side := make([]byte, n)
			keep := [2][]bool{make([]bool, n), make([]bool, n)}
			for v := range side {
				side[v] = draw()
				keep[side[v]][v] = true
			}
			local := make([]int32, n)
			subA, subB := g.Split(side, local, &rows)
			for sd, got := range []*graph.Graph{subA, subB} {
				want, ids := graphtest.InducedSubgraph(g, keep[sd])
				if d := graph.Diff(got, want); d != "" {
					t.Fatalf("n=%d side %d: split graph differs from the induced subgraph: %s", n, sd, d)
				}
				for nv, ov := range ids {
					if local[ov] != int32(nv) {
						t.Fatalf("n=%d side %d: node %d numbered %d, want %d", n, sd, ov, local[ov], nv)
					}
				}
				if g.UnitEdgeWeights() && !got.UnitEdgeWeights() {
					t.Fatalf("n=%d side %d: a unit graph split into a weighted one", n, sd)
				}
			}
		}
	}
}

func TestEngineString(t *testing.T) {
	if EngineScotch.String() != "scotch-like" || EnginePMetis.String() != "pmetis-like" {
		t.Fatal("engine names wrong")
	}
}

func BenchmarkInitialPartition(b *testing.B) {
	for _, spec := range []string{"rgg:12", "rmat:12"} {
		b.Run(strings.ReplaceAll(spec, ":", ""), func(b *testing.B) {
			g, err := gen.FromSpec(spec)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Partition(g, 8, 0.03, EngineScotch, uint64(i))
			}
		})
	}
}

// TestBisectionHierarchyShrinksGeometrically pins the bisections' coarsening
// to the pipeline's shrink rule on a hub graph, where most nodes stay
// unmatched: every pushed level must pass coarsen.Hierarchy.Shrinks, and the
// hierarchy stays shallow instead of piling up levels that each remove a
// handful of nodes and each cost a round of FM.
func TestBisectionHierarchyShrinksGeometrically(t *testing.T) {
	g := gen.RMAT(12, 10, 1)
	for seed := uint64(1); seed <= 8; seed++ {
		for _, eng := range []Engine{EngineScotch, EnginePMetis} {
			s := newBisector(eng.params(), 0.03, seed)
			h := s.hierarchy(g)
			for li, lv := range h.Levels {
				coarse := h.Coarsest
				if li+1 < h.Depth() {
					coarse = h.Levels[li+1].Fine
				}
				if !coarsen.NewHierarchy(lv.Fine).Shrinks(coarse) {
					t.Errorf("seed %d %v: level %d pushed %d → %d nodes, less than the shared rule's shrink",
						seed, eng, li, lv.Fine.NumNodes(), coarse.NumNodes())
				}
			}
			// 3 093 nodes shrink to about 700 in 9–10 levels; a loop keeping
			// any level that removes a node pushes 16–34.
			if h.Depth() > 12 {
				t.Errorf("seed %d %v: %d levels (%d → %d nodes), want at most 12",
					seed, eng, h.Depth(), g.NumNodes(), h.Coarsest.NumNodes())
			}
		}
	}
}
