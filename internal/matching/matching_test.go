package matching

import (
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/rating"
	"repro/internal/rng"
)

// bruteMaxMatching computes the exact maximum weight matching of a small
// graph (n <= 20) by exhaustive search over edges.
func bruteMaxMatching(g *graph.Graph) int64 {
	type edge struct {
		u, v int32
		w    int64
	}
	var edges []edge
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		for i, u := range g.Adj(v) {
			if u > v {
				edges = append(edges, edge{v, u, g.AdjWeights(v)[i]})
			}
		}
	}
	var best int64
	var rec func(i int, used uint32, w int64)
	rec = func(i int, used uint32, w int64) {
		if w > best {
			best = w
		}
		for j := i; j < len(edges); j++ {
			e := edges[j]
			if used&(1<<uint(e.u)) == 0 && used&(1<<uint(e.v)) == 0 {
				rec(j+1, used|1<<uint(e.u)|1<<uint(e.v), w+e.w)
			}
		}
	}
	rec(0, 0, 0)
	return best
}

func randomWeightedGraph(n, m int, r *rng.RNG) *graph.Graph {
	b := graph.NewBuilder(n)
	for e := 0; e < m; e++ {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u != v {
			b.AddEdge(u, v, int64(1+r.Intn(20)))
		}
	}
	return b.Build()
}

func TestMatchingValidity(t *testing.T) {
	master := rng.New(42)
	for _, alg := range []Algorithm{SHEM, Greedy, GPA} {
		alg := alg
		f := func(seed uint16) bool {
			r := master.Split(uint64(seed))
			g := randomWeightedGraph(2+r.Intn(40), 60, r)
			for _, rf := range rating.All {
				m := ComputeScratch(g, rating.NewRater(rf, g), alg, r, 0, nil)
				if m.Validate(g) != nil {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("%v: %v", alg, err)
		}
	}
}

func TestMatchingIsMaximal(t *testing.T) {
	// Greedy and GPA matchings are maximal w.r.t. the edge set: no edge may
	// have both endpoints unmatched.
	r := rng.New(7)
	for _, alg := range []Algorithm{SHEM, Greedy, GPA} {
		g := randomWeightedGraph(30, 80, r)
		m := ComputeScratch(g, rating.NewRater(rating.Weight, g), alg, r, 0, nil)
		for v := int32(0); v < int32(g.NumNodes()); v++ {
			for _, u := range g.Adj(v) {
				if m[v] < 0 && m[u] < 0 {
					t.Fatalf("%v: edge {%d,%d} both unmatched", alg, v, u)
				}
			}
		}
	}
}

func TestHalfApproximation(t *testing.T) {
	// Greedy and GPA guarantee weight >= OPT/2 (with the Weight rating).
	master := rng.New(99)
	f := func(seed uint16) bool {
		r := master.Split(uint64(seed))
		g := randomWeightedGraph(4+r.Intn(12), 20, r)
		opt := bruteMaxMatching(g)
		for _, alg := range []Algorithm{Greedy, GPA} {
			m := ComputeScratch(g, rating.NewRater(rating.Weight, g), alg, r, 0, nil)
			if 2*m.Weight(g) < opt {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGPABeatsOrMatchesGreedyOnPaths(t *testing.T) {
	// On a path with weights 1,2,1 Greedy takes the middle edge (weight 2)
	// while the optimum takes the two outer edges (weight 2 as well); with
	// weights 3,4,3 Greedy gets 4, GPA must find 6.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 3)
	b.AddEdge(1, 2, 4)
	b.AddEdge(2, 3, 3)
	g := b.Build()
	r := rng.New(1)
	gpa := ComputeScratch(g, rating.NewRater(rating.Weight, g), GPA, r, 0, nil)
	if gpa.Weight(g) != 6 {
		t.Fatalf("GPA weight = %d, want 6", gpa.Weight(g))
	}
	greedy := ComputeScratch(g, rating.NewRater(rating.Weight, g), Greedy, r, 0, nil)
	if greedy.Weight(g) != 4 {
		t.Fatalf("Greedy weight = %d, want 4", greedy.Weight(g))
	}
}

func TestGPAOptimalOnEvenCycle(t *testing.T) {
	// 4-cycle with weights 5,1,5,1: optimum picks the two 5s.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 5)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 5)
	b.AddEdge(3, 0, 1)
	g := b.Build()
	m := ComputeScratch(g, rating.NewRater(rating.Weight, g), GPA, rng.New(3), 0, nil)
	if m.Weight(g) != 10 {
		t.Fatalf("GPA on 4-cycle = %d, want 10", m.Weight(g))
	}
}

func TestMaxPathMatchingOptimal(t *testing.T) {
	// DP must match brute force on random rating sequences.
	master := rng.New(5)
	f := func(seed uint16) bool {
		r := master.Split(uint64(seed))
		k := 1 + r.Intn(12)
		ratings := make([]float64, k)
		for i := range ratings {
			ratings[i] = float64(r.Intn(100))
		}
		take := maxPathMatching(ratings, &pathDP{})
		got := 0.0
		for i, t := range take {
			if t {
				if i > 0 && take[i-1] {
					return false // adjacent edges taken
				}
				got += ratings[i]
			}
		}
		// brute force over subsets
		best := 0.0
		for mask := 0; mask < 1<<uint(k); mask++ {
			ok, s := true, 0.0
			for i := 0; i < k; i++ {
				if mask&(1<<uint(i)) != 0 {
					if i > 0 && mask&(1<<uint(i-1)) != 0 {
						ok = false
						break
					}
					s += ratings[i]
				}
			}
			if ok && s > best {
				best = s
			}
		}
		return got == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxCycleMatchingOptimal(t *testing.T) {
	master := rng.New(6)
	f := func(seed uint16) bool {
		r := master.Split(uint64(seed))
		k := 4 + 2*r.Intn(5) // even cycles of length 4..12
		ratings := make([]float64, k)
		for i := range ratings {
			ratings[i] = float64(r.Intn(100))
		}
		take := maxCycleMatching(ratings, &pathDP{})
		got := 0.0
		for i, t := range take {
			if t {
				next := (i + 1) % k
				if take[next] {
					return false // cyclically adjacent
				}
				got += ratings[i]
			}
		}
		best := 0.0
		for mask := 0; mask < 1<<uint(k); mask++ {
			ok, s := true, 0.0
			for i := 0; i < k; i++ {
				if mask&(1<<uint(i)) != 0 {
					if mask&(1<<uint((i+1)%k)) != 0 {
						ok = false
						break
					}
					s += ratings[i]
				}
			}
			if ok && s > best {
				best = s
			}
		}
		return got == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGPAQuality(t *testing.T) {
	// Empirically GPA should be at least as good as Greedy on meshes (the
	// paper reports considerably better results).
	g := gen.Grid2D(40, 40)
	r := rng.New(11)
	rt := rating.NewRater(rating.Weight, g)
	gpaW := ComputeScratch(g, rt, GPA, r, 0, nil).Weight(g)
	greedyW := ComputeScratch(g, rt, Greedy, r, 0, nil).Weight(g)
	if gpaW < greedyW {
		t.Fatalf("GPA weight %d < Greedy weight %d", gpaW, greedyW)
	}
}

func TestParallelMatchingValidity(t *testing.T) {
	g := gen.RGG(11, 3)
	n := g.NumNodes()
	for _, nparts := range []int{1, 2, 4, 8} {
		block := make([]int32, n)
		for v := 0; v < n; v++ {
			block[v] = int32(v * nparts / n)
		}
		for _, alg := range []Algorithm{SHEM, Greedy, GPA} {
			m := ParallelScratch(g, rating.NewRater(rating.ExpansionStar2, g), alg, block, nparts, 5, 0, nil)
			if err := m.Validate(g); err != nil {
				t.Fatalf("nparts=%d alg=%v: %v", nparts, alg, err)
			}
			if m.Size() == 0 {
				t.Fatalf("nparts=%d alg=%v: empty matching", nparts, alg)
			}
		}
	}
}

func TestParallelMatchingCrossesBlocks(t *testing.T) {
	// Two blocks joined by one very heavy edge: the gap phase must take it.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1) // block 0 internal
	b.AddEdge(2, 3, 1) // block 1 internal
	b.AddEdge(1, 2, 100)
	g := b.Build()
	block := []int32{0, 0, 1, 1}
	m := ParallelScratch(g, rating.NewRater(rating.Weight, g), GPA, block, 2, 1, 0, nil)
	if err := m.Validate(g); err != nil {
		t.Fatal(err)
	}
	if m[1] != 2 || m[2] != 1 {
		t.Fatalf("gap edge {1,2} not matched: %v", m)
	}
}

// TestParallelAboveFloorMatchesSerial matches a mesh and a power-law graph
// with enough half-edges for the gap scan to run on node ranges side by side,
// over 16 blocks, on one processor and on two: the matchings must be equal.
func TestParallelAboveFloorMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, g := range map[string]*graph.Graph{"rgg15": gen.RGG(15, 1), "rmat12": gen.RMAT(12, 16, 1)} {
		if 2*g.NumEdges() < 1<<16 {
			t.Fatalf("%s: %d edges stay under the parallel floor", name, g.NumEdges())
		}
		block := dist.Assign(g, dist.StrategyAuto, 16)
		rt := rating.NewRater(rating.ExpansionStar2, g)
		runtime.GOMAXPROCS(1)
		want := ParallelScratch(g, rt, GPA, block, 16, 3, 6, nil)
		if err := want.Validate(g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		runtime.GOMAXPROCS(2)
		if got := ParallelScratch(g, rt, GPA, block, 16, 3, 6, nil); !slices.Equal(got, want) {
			t.Fatalf("%s: GOMAXPROCS=2 matches differently from GOMAXPROCS=1", name)
		}
		crew := par.Start(2, par.Spin)
		got := Parallel(crew, g, rt, GPA, block, 16, 3, 6, true, nil)
		crew.Stop()
		if !slices.Equal(got, want) {
			t.Fatalf("%s: a crew of two matches differently from GOMAXPROCS=1", name)
		}
	}
}

// TestLocalScratchIsTheLocalPhase holds the no-gap ablation — Parallel with
// gap false — to what it promises: a valid matching with no pair across
// blocks that is the local phase of ParallelScratch. Every pair
// ParallelScratch keeps inside a block is one of the ablation's, and every
// pair of the ablation it does not keep lost an endpoint to a gap edge — a
// pair that running the gap phase and then unmatching the cross-block pairs
// would have lost too. The mesh gets the
// uneven node and edge weights of a contracted level, without which no gap
// edge outrates a local match.
func TestLocalScratchIsTheLocalPhase(t *testing.T) {
	mesh := gen.RGG(14, 1)
	r := rng.New(14)
	nwgt := make([]int64, mesh.NumNodes())
	var edges graph.EdgeList
	for v := int32(0); v < int32(mesh.NumNodes()); v++ {
		nwgt[v] = 1 + int64(r.Intn(3))
		for _, u := range mesh.Adj(v) {
			if u > v {
				edges.U, edges.V, edges.W = append(edges.U, v), append(edges.V, u), append(edges.W, 1+int64(r.Intn(4)))
			}
		}
	}
	g, err := graph.FromEdgeList(nwgt, edges)
	if err != nil {
		t.Fatal(err)
	}
	g.SetCoords(mesh.Coords()...)
	block := dist.Assign(g, dist.StrategyAuto, 8)
	rt := rating.NewRater(rating.ExpansionStar2, g)
	local := Parallel(nil, g, rt, GPA, block, 8, 5, 0, false, nil)
	full := ParallelScratch(g, rt, GPA, block, 8, 5, 0, nil)
	if err := local.Validate(g); err != nil {
		t.Fatal(err)
	}
	crosses := func(m Matching, v int32) bool { return m[v] >= 0 && block[m[v]] != block[v] }
	lost := 0
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		u := local[v]
		if crosses(local, v) {
			t.Fatalf("node %d matched across blocks to %d", v, u)
		}
		if full[v] >= 0 && !crosses(full, v) && full[v] != u {
			t.Fatalf("node %d: ParallelScratch keeps it paired with %d, the local phase paired it with %d", v, full[v], u)
		}
		if u < 0 || full[v] == u {
			continue
		}
		if !crosses(full, v) && !crosses(full, u) {
			t.Fatalf("local pair {%d,%d} dissolved without a gap edge at either end", v, u)
		}
		lost++
	}
	if lost == 0 {
		t.Fatal("no local pair lost to a gap edge: the ablation ran the gap phase, or no gap edge outrates a local match here")
	}
}

func TestParallelDeterministicForSeed(t *testing.T) {
	g := gen.Grid2D(20, 20)
	block := make([]int32, g.NumNodes())
	for v := range block {
		block[v] = int32(v % 4)
	}
	rt := rating.NewRater(rating.ExpansionStar2, g)
	a := ParallelScratch(g, rt, GPA, block, 4, 9, 0, nil)
	b := ParallelScratch(g, rt, GPA, block, 4, 9, 0, nil)
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("parallel matching is not deterministic for fixed seed")
		}
	}
}

func TestMatchingSizeAndWeight(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 3)
	b.AddEdge(2, 3, 4)
	g := b.Build()
	m := NewEmpty(4)
	m[0], m[1] = 1, 0
	m[2], m[3] = 3, 2
	if m.Size() != 2 || m.Weight(g) != 7 {
		t.Fatalf("Size=%d Weight=%d", m.Size(), m.Weight(g))
	}
}

func TestValidateRejectsBadMatchings(t *testing.T) {
	g := gen.Grid2D(3, 3)
	m := NewEmpty(9)
	m[0] = 1 // asymmetric
	if m.Validate(g) == nil {
		t.Fatal("asymmetric matching accepted")
	}
	m = NewEmpty(9)
	m[0], m[8] = 8, 0 // not an edge
	if m.Validate(g) == nil {
		t.Fatal("non-edge pair accepted")
	}
}

func BenchmarkGPA(b *testing.B) {
	g := gen.RGG(14, 1)
	rt := rating.NewRater(rating.ExpansionStar2, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeScratch(g, rt, GPA, rng.New(uint64(i)), 0, nil)
	}
}

func BenchmarkSHEM(b *testing.B) {
	g := gen.RGG(14, 1)
	rt := rating.NewRater(rating.ExpansionStar2, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeScratch(g, rt, SHEM, rng.New(uint64(i)), 0, nil)
	}
}
