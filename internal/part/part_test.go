package part

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func stripes(g *graph.Graph, k int) []int32 {
	n := g.NumNodes()
	block := make([]int32, n)
	for v := 0; v < n; v++ {
		block[v] = int32(v * k / n)
	}
	return block
}

func TestCutAndWeights(t *testing.T) {
	// 2x2 grid split into left/right columns: cut = 2.
	g := gen.Grid2D(2, 2)
	p := FromBlocks(g, 2, 0.03, []int32{0, 0, 1, 1})
	if p.Cut() != 2 {
		t.Fatalf("cut = %d, want 2", p.Cut())
	}
	if p.BlockWeight(0) != 2 || p.BlockWeight(1) != 2 {
		t.Fatal("block weights wrong")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !p.Feasible() {
		t.Fatal("balanced partition reported infeasible")
	}
	if p.Imbalance() != 1.0 {
		t.Fatalf("imbalance = %f, want 1.0", p.Imbalance())
	}
}

func TestMoveMaintainsWeights(t *testing.T) {
	g := gen.Grid2D(4, 4)
	p := FromBlocks(g, 2, 0.03, stripes(g, 2))
	before := p.Cut()
	p.Move(0, 1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.BlockWeight(0) != 7 || p.BlockWeight(1) != 9 {
		t.Fatalf("weights after move: %d %d", p.BlockWeight(0), p.BlockWeight(1))
	}
	p.Move(0, 1) // moving to own block is a no-op
	if p.BlockWeight(1) != 9 {
		t.Fatal("self-move changed weights")
	}
	p.Move(0, 0)
	if p.Cut() != before {
		t.Fatal("move round trip changed cut")
	}
}

func TestLmaxFormula(t *testing.T) {
	g := gen.Grid2D(10, 10) // 100 unit nodes
	lmax := ComputeLmax(g, 4, 0.03)
	// (1.03*100/4) + 1 = 25.75+1 → 26
	if lmax != 26 {
		t.Fatalf("Lmax = %d, want 26", lmax)
	}
}

func TestFeasible(t *testing.T) {
	g := gen.Grid2D(4, 4)
	block := make([]int32, 16) // all in block 0
	p := FromBlocks(g, 2, 0.03, block)
	if p.Feasible() {
		t.Fatal("fully unbalanced partition reported feasible")
	}
}

func TestBoundaryNodes(t *testing.T) {
	g := gen.Grid2D(4, 4) // columns of 4; split after column 2
	p := FromBlocks(g, 2, 0.03, stripes(g, 2))
	bn := p.BoundaryNodes()
	if len(bn) != 8 {
		t.Fatalf("boundary size %d, want 8", len(bn))
	}
}

func TestValidateCatchesBadBlock(t *testing.T) {
	g := gen.Grid2D(2, 2)
	p := FromBlocks(g, 2, 0.03, []int32{0, 0, 1, 1})
	p.Block[0] = 7 // corrupt without bookkeeping
	if p.Validate() == nil {
		t.Fatal("out-of-range block accepted")
	}
}

func TestQuotient(t *testing.T) {
	// 4x1 path in 4 blocks: quotient is a path 0-1-2-3.
	g := gen.Grid2D(4, 1)
	p := FromBlocks(g, 4, 0.03, []int32{0, 1, 2, 3})
	q := p.Quotient()
	if len(q) != 3 {
		t.Fatalf("quotient has %d edges, want 3", len(q))
	}
	for i, e := range q {
		if e.A != int32(i) || e.B != int32(i+1) || e.W != 1 {
			t.Fatalf("quotient edge %d = %+v", i, e)
		}
	}
}

func TestQuotientWeights(t *testing.T) {
	g := gen.Grid2D(4, 4)
	p := FromBlocks(g, 2, 0.03, stripes(g, 2))
	q := p.Quotient()
	if len(q) != 1 || q[0].W != 4 {
		t.Fatalf("quotient %+v, want single edge of weight 4", q)
	}
}

// validColoring checks that no two incident edges share a color.
func validColoring(edges []QEdge, colors []int) bool {
	seen := make(map[uint64]bool)
	for i, e := range edges {
		ka := uint64(e.A)<<32 | uint64(colors[i])
		kb := uint64(e.B)<<32 | uint64(colors[i])
		if seen[ka] || seen[kb] {
			return false
		}
		seen[ka], seen[kb] = true, true
	}
	return true
}

func maxQDegree(k int, edges []QEdge) int {
	deg := make([]int, k)
	for _, e := range edges {
		deg[e.A]++
		deg[e.B]++
	}
	max := 0
	for _, d := range deg {
		if d > max {
			max = d
		}
	}
	return max
}

func randomQuotient(k int, density float64, r *rng.RNG) []QEdge {
	var edges []QEdge
	for a := int32(0); a < int32(k); a++ {
		for b := a + 1; b < int32(k); b++ {
			if r.Float64() < density {
				edges = append(edges, QEdge{a, b, int64(1 + r.Intn(10))})
			}
		}
	}
	return edges
}

func TestDistributedColoringValidAndBounded(t *testing.T) {
	master := rng.New(72)
	f := func(seed uint16) bool {
		r := master.Split(uint64(seed))
		k := 2 + r.Intn(16)
		edges := randomQuotient(k, 0.5, r)
		colors, nc := DistributedColoring(k, edges, uint64(seed))
		for _, c := range colors {
			if c < 0 {
				return false // uncolored edge
			}
		}
		if !validColoring(edges, colors) {
			return false
		}
		// ≤ 2·OPT and OPT ≤ Δ+1 (Vizing), so ≤ 2Δ+2 is a safe bound.
		maxDeg := maxQDegree(k, edges)
		return nc <= 2*maxDeg+2 || len(edges) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDistributedColoringDeterministic(t *testing.T) {
	r := rng.New(2)
	edges := randomQuotient(8, 0.6, r)
	c1, n1 := DistributedColoring(8, edges, 7)
	c2, n2 := DistributedColoring(8, edges, 7)
	if n1 != n2 {
		t.Fatal("color counts differ for equal seeds")
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatal("colorings differ for equal seeds")
		}
	}
}

func TestColorClassesAreMatchings(t *testing.T) {
	r := rng.New(3)
	edges := randomQuotient(12, 0.4, r)
	colors, nc := DistributedColoring(12, edges, 3)
	classes := ColorClasses(edges, colors, nc)
	total := 0
	for _, class := range classes {
		busy := make(map[int32]bool)
		for _, e := range class {
			if busy[e.A] || busy[e.B] {
				t.Fatal("color class is not a matching")
			}
			busy[e.A], busy[e.B] = true, true
		}
		total += len(class)
	}
	if total != len(edges) {
		t.Fatal("color classes lost edges")
	}
}

func TestExternalDegree(t *testing.T) {
	g := gen.Grid2D(4, 1)
	p := FromBlocks(g, 4, 0.03, []int32{0, 1, 2, 3})
	if p.ExternalDegree(0) != 1 || p.ExternalDegree(1) != 2 {
		t.Fatal("external degrees wrong")
	}
}
