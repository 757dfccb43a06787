package coarsen

import (
	"errors"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rating"
	"repro/internal/rng"
)

// referenceStitch is the Stitch the direct CSR assembly replaced, kept
// verbatim as the oracle: every part's weights, coordinates and edges go
// through a graph.Builder one call at a time.
func referenceStitch(g *graph.Graph, parts []*PEContraction) (*graph.Graph, []int32) {
	total := 0
	for _, p := range parts {
		total += len(p.Weights)
	}
	b := graph.NewBuilder(total)
	for _, p := range parts {
		for i, w := range p.Weights {
			b.SetNodeWeight(p.FirstCoarse+int32(i), w)
		}
		if g.CoordDims() == 3 {
			for i := range p.Weights {
				b.SetCoord3(p.FirstCoarse+int32(i), p.CX[i], p.CY[i], p.CZ[i])
			}
		} else if g.HasCoords() {
			for i := range p.Weights {
				b.SetCoord(p.FirstCoarse+int32(i), p.CX[i], p.CY[i])
			}
		}
		for i := range p.EdgeU {
			b.AddEdge(p.EdgeU[i], p.EdgeV[i], p.EdgeW[i])
		}
	}
	fine2coarse := make([]int32, g.NumNodes())
	for _, p := range parts {
		for i, gv := range p.FineGlobal {
			fine2coarse[gv] = p.FineCoarse[i]
		}
	}
	return b.Build(), fine2coarse
}

// sameGraph compares CSR rows, node weights, coordinates and aggregates.
func sameGraph(t *testing.T, what string, got, want *graph.Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() || got.AdjSorted() != want.AdjSorted() ||
		got.TotalNodeWeight() != want.TotalNodeWeight() || got.TotalEdgeWeight() != want.TotalEdgeWeight() ||
		got.MaxNodeWeight() != want.MaxNodeWeight() || got.CoordDims() != want.CoordDims() {
		t.Fatalf("%s: shape or aggregates differ from the reference", what)
	}
	for v := int32(0); v < int32(want.NumNodes()); v++ {
		if !slices.Equal(got.Adj(v), want.Adj(v)) || !slices.Equal(got.AdjWeights(v), want.AdjWeights(v)) {
			t.Fatalf("%s: row %d differs from the reference", what, v)
		}
	}
	if !slices.Equal(got.NodeWeights(), want.NodeWeights()) {
		t.Fatalf("%s: node weights differ from the reference", what)
	}
	gc, wc := got.CoordSlices(), want.CoordSlices()
	for d := range wc {
		if !slices.Equal(gc[d], wc[d]) {
			t.Fatalf("%s: coordinate %d differs from the reference", what, d)
		}
	}
}

// levelParts runs one distributed level up to the per-PE contractions.
func levelParts(g *graph.Graph, assign []int32, pes int, seed uint64) []*PEContraction {
	ex := dist.NewExchanger(pes)
	sgs := dist.ExtractAll(g, assign, pes)
	ms := matching.DistributedBounded(sgs, ex, rating.ExpansionStar2, matching.GPA, seed, 0, true)
	parts := make([]*PEContraction, pes)
	var wg sync.WaitGroup
	for pe := range parts {
		wg.Add(1)
		go func(pe int) {
			defer wg.Done()
			parts[pe] = ContractSubgraph(sgs[pe], ms[pe], ex, pe)
		}(pe)
	}
	wg.Wait()
	return parts
}

func TestStitchMatchesReference(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rgg":      gen.RGG(10, 1),
		"delaunay": gen.DelaunayX(9, 2),
		"grid":     gen.Grid2D(20, 17),
		"grid3d":   gen.Grid3D(7, 6, 5),
		"road":     gen.Road(600, 4, 3),
		"social":   gen.PrefAttach(500, 4, 4),
		"rmat":     gen.RMAT(9, 8, 5),
		"fem":      gen.FEMMesh(500, 2, 6),
		"banded":   gen.Banded(400, 20, 6, 0.3, 7),
	}
	// Weighted, unsorted inputs: what every level after the first stitches.
	for _, name := range []string{"rgg", "grid3d", "rmat"} {
		g := graphs[name]
		cg, _ := ContractWith(g, matching.ComputeScratch(g, rating.NewRater(rating.ExpansionStar2, g), matching.GPA, rng.New(5), 0, nil), Options{})
		graphs[name+"/contracted"] = cg
	}
	for name, g := range graphs {
		for _, pes := range []int{1, 2, 5} {
			parts := levelParts(g, dist.Assign(g, dist.StrategyAuto, pes), pes, 17)
			parallel := 0
			for _, p := range parts {
				seen := make(map[[2]int32]bool, len(p.EdgeU))
				for i, u := range p.EdgeU {
					e := [2]int32{min(u, p.EdgeV[i]), max(u, p.EdgeV[i])}
					if seen[e] {
						parallel++
					}
					seen[e] = true
				}
			}
			if parallel == 0 && g.NumEdges() > g.NumNodes() {
				t.Errorf("%s pes=%d: no part carries a parallel coarse edge; the merge is not covered", name, pes)
			}
			got, gotMap := Stitch(g, parts)
			want, wantMap := referenceStitch(g, parts)
			sameGraph(t, name, got, want)
			if !slices.Equal(gotMap, wantMap) {
				t.Fatalf("%s pes=%d: fine→coarse map differs from the reference", name, pes)
			}
		}
		// A PE that owns nothing contributes an empty part.
		n := g.NumNodes()
		ends := make([]int32, n)
		for v := n / 2; v < n; v++ {
			ends[v] = 2
		}
		parts := levelParts(g, ends, 3, 9)
		if len(parts[1].Weights) != 0 {
			t.Fatalf("%s: the empty PE contributed %d coarse nodes", name, len(parts[1].Weights))
		}
		got, _ := Stitch(g, parts)
		want, _ := referenceStitch(g, parts)
		sameGraph(t, name+"/empty PE", got, want)
	}
}

// TestStitchMergesAcrossParts pins the case a real level rarely produces:
// the same coarse edge contributed by two different parts, in both
// orientations, next to a self loop.
func TestStitchMergesAcrossParts(t *testing.T) {
	g := gen.Grid2D(2, 2)
	parts := []*PEContraction{
		{FirstCoarse: 0, Weights: []int64{2, 3}, CX: []float64{0, 1}, CY: []float64{5, 6},
			EdgeU: []int32{0, 1, 1}, EdgeV: []int32{2, 0, 1}, EdgeW: []int64{4, 1, 9},
			FineGlobal: []int32{0, 1}, FineCoarse: []int32{0, 1}},
		{FirstCoarse: 2, Weights: []int64{7}, CX: []float64{2}, CY: []float64{7},
			EdgeU: []int32{2, 0}, EdgeV: []int32{0, 1}, EdgeW: []int64{6, 2},
			FineGlobal: []int32{2, 3}, FineCoarse: []int32{2, 2}},
	}
	got, gotMap := Stitch(g, parts)
	want, wantMap := referenceStitch(g, parts)
	sameGraph(t, "handmade", got, want)
	if !slices.Equal(gotMap, wantMap) {
		t.Fatal("fine→coarse map differs from the reference")
	}
	if w := got.EdgeWeightTo(0, 2); w != 10 {
		t.Fatalf("edge {0,2} contributed by both parts has weight %d, want 10", w)
	}
}

// TestStitchNothing covers a level whose parts are all empty.
func TestStitchNothing(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	got, _ := Stitch(g, []*PEContraction{{}, {}})
	want, _ := referenceStitch(g, []*PEContraction{{}, {}})
	sameGraph(t, "empty", got, want)
}

// TestStitchByteIdenticalAcrossGOMAXPROCS stitches level-0 parts large enough
// to clear the half-edge floor of graph.FromEdgeLists on one, two and four
// processors: offsets, neighbours, weights, coordinates, aggregates and the
// fine→coarse map must not depend on how many goroutines built them. The
// one-processor result is also held against graph.FromCSR of its own arrays —
// the stitch adopts them without that second walk.
func TestStitchByteIdenticalAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, g := range map[string]*graph.Graph{"rgg14": gen.RGG(14, 1), "rmat13": gen.RMAT(13, 8, 2), "grid3d": gen.Grid3D(24, 24, 24)} {
		parts := levelParts(g, dist.Assign(g, dist.StrategyAuto, 3), 3, 17)
		edges := 0
		for _, p := range parts {
			edges += len(p.EdgeU)
		}
		if edges < 1<<15 {
			t.Fatalf("%s: %d coarse edge contributions stay under the parallel floor", name, edges)
		}
		runtime.GOMAXPROCS(1)
		want, wantMap := Stitch(g, parts)
		xadj := []int32{0}
		adj, ewgt := []int32{}, []int64{}
		for v := int32(0); v < int32(want.NumNodes()); v++ {
			adj, ewgt = append(adj, want.Adj(v)...), append(ewgt, want.AdjWeights(v)...)
			xadj = append(xadj, int32(len(adj)))
		}
		checked, err := graph.FromCSR(xadj, adj, ewgt, slices.Clone(want.NodeWeights()))
		if err != nil {
			t.Fatalf("%s: graph.FromCSR refuses the stitched arrays: %v", name, err)
		}
		switch x, y, z := want.Coords3(); want.CoordDims() {
		case 2:
			checked.SetCoords(x, y)
		case 3:
			checked.SetCoords3(x, y, z)
		}
		if !reflect.DeepEqual(want, checked) {
			t.Fatalf("%s: stitched graph differs from graph.FromCSR of the same arrays", name)
		}
		for _, procs := range []int{2, 4} {
			runtime.GOMAXPROCS(procs)
			got, gotMap := Stitch(g, parts)
			if !reflect.DeepEqual(got, want) || !slices.Equal(gotMap, wantMap) {
				t.Fatalf("%s: GOMAXPROCS=%d stitches a different graph or map than GOMAXPROCS=1", name, procs)
			}
		}
	}
}

// TestStitchCheckedRefuses feeds the stitch parts no honest worker sends: each
// used to panic the coordinator (index or slice bounds out of range, the
// kernel's own out-of-range panic) and must now come back as a *PartError
// naming the PE whose part it is.
func TestStitchCheckedRefuses(t *testing.T) {
	g := gen.Grid2D(4, 4)
	honest := func() []*PEContraction { return levelParts(g, dist.Assign(g, dist.StrategyRanges, 2), 2, 3) }
	if _, _, err := StitchChecked(g, honest()); err != nil {
		t.Fatalf("honest parts refused: %v", err)
	}
	total := int32(0)
	for _, p := range honest() {
		total += int32(len(p.Weights))
	}
	for name, corrupt := range map[string]func(p *PEContraction){
		"edge targets shorter than sources": func(p *PEContraction) { p.EdgeV = p.EdgeV[:len(p.EdgeV)-1] },
		"first coarse id -1":                func(p *PEContraction) { p.FirstCoarse = -1 },
		"first coarse id past the parts":    func(p *PEContraction) { p.FirstCoarse += 3 },
		"fine node id past the graph":       func(p *PEContraction) { p.FineGlobal[0] = int32(g.NumNodes()) },
		"negative fine node id":             func(p *PEContraction) { p.FineGlobal[0] = -1 },
		"coarse id past the level":          func(p *PEContraction) { p.FineCoarse[0] = total },
		"edge id past the level":            func(p *PEContraction) { p.EdgeV[0] = total },
		"negative edge id":                  func(p *PEContraction) { p.EdgeU[0] = -5 },
		"edge weight zero":                  func(p *PEContraction) { p.EdgeW[0] = 0 },
		"negative node weight":              func(p *PEContraction) { p.Weights[0] = -1 },
		"coordinates shorter than weights":  func(p *PEContraction) { p.CX = p.CX[:len(p.CX)-1] },
		"a coordinate dimension missing":    func(p *PEContraction) { p.CY = nil },
		"fewer coarse ids than fine nodes":  func(p *PEContraction) { p.FineCoarse = p.FineCoarse[1:] },
		"a fine node mapped twice":          func(p *PEContraction) { p.FineGlobal[0] = p.FineGlobal[1] },
	} {
		for pe := range 2 {
			parts := honest()
			corrupt(parts[pe])
			_, _, err := StitchChecked(g, parts)
			var perr *PartError
			if !errors.As(err, &perr) {
				t.Fatalf("%s in part %d: got %v, want a *PartError", name, pe, err)
			}
			if perr.PE != pe {
				t.Errorf("%s in part %d: blamed on PE %d (%v)", name, pe, perr.PE, err)
			}
		}
	}
	// What only the parts together get wrong is no single PE's: a fine node
	// nobody maps. A node two parts map is the later part's.
	parts := honest()
	parts[0].FineGlobal, parts[0].FineCoarse = parts[0].FineGlobal[1:], parts[0].FineCoarse[1:]
	var perr *PartError
	if _, _, err := StitchChecked(g, parts); !errors.As(err, &perr) || perr.PE != -1 {
		t.Errorf("a fine node left out: got %v, want a *PartError of PE -1", err)
	}
	parts = honest()
	parts[1].FineGlobal[0] = parts[0].FineGlobal[0]
	if _, _, err := StitchChecked(g, parts); !errors.As(err, &perr) || perr.PE != 1 {
		t.Errorf("a fine node of part 0 mapped by part 1 too: got %v, want a *PartError of PE 1", err)
	}
}
