package refine

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/rng"
)

// noisyBisection returns a 2-block partition of a grid with a ragged
// boundary that FM should be able to straighten.
func noisyBisection(g *graph.Graph, r *rng.RNG) *part.Partition {
	n := g.NumNodes()
	block := make([]int32, n)
	for v := 0; v < n; v++ {
		block[v] = int32(2 * v / n)
	}
	// Perturb ~10% of nodes near the middle.
	for i := 0; i < n/10; i++ {
		v := n/2 - n/20 + r.Intn(n/10)
		block[v] = 1 - block[v]
	}
	return part.FromBlocks(g, 2, 0.03, block)
}

func defaultCfg() TwoWayConfig {
	return TwoWayConfig{Strategy: TopGain, Patience: 0.25, BandDepth: 5}
}

func TestRefinePairImprovesCut(t *testing.T) {
	g := gen.Grid2D(16, 16)
	r := rng.New(1)
	p := noisyBisection(g, r)
	before := p.Cut()
	out := RefinePairViewWS(NewWorkspace(), p, p.Block, 0, 1, defaultCfg(), 11, 12)
	after := p.Cut()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if after > before {
		t.Fatalf("refinement worsened cut: %d -> %d", before, after)
	}
	if out.Gain != before-after {
		t.Fatalf("reported gain %d != actual %d", out.Gain, before-after)
	}
	if after == before {
		t.Fatalf("refinement found no improvement on a noisy bisection (cut %d)", before)
	}
}

func TestRefinePairKeepsFeasibility(t *testing.T) {
	master := rng.New(5)
	strategies := []Strategy{TopGain, TopGainMaxLoad, MaxLoad, Alternate}
	f := func(seed uint16) bool {
		r := master.Split(uint64(seed))
		g := gen.Grid2D(10, 10)
		p := noisyBisection(g, r)
		wasFeasible := p.Feasible()
		st := strategies[int(seed)%len(strategies)]
		cfg := TwoWayConfig{Strategy: st, Patience: 0.2, BandDepth: 3}
		RefinePairViewWS(NewWorkspace(), p, p.Block, 0, 1, cfg, uint64(seed), uint64(seed)+1)
		if p.Validate() != nil {
			return false
		}
		// Refinement must never break feasibility that held before.
		return !wasFeasible || p.Feasible()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRefinePairRepairsOverload(t *testing.T) {
	// Start with a heavily overloaded block; the MaxLoad exception must
	// reduce the imbalance.
	g := gen.Grid2D(12, 12)
	n := g.NumNodes()
	block := make([]int32, n)
	for v := 0; v < n; v++ {
		if v >= 3*n/4 {
			block[v] = 1
		}
	}
	p := part.FromBlocks(g, 2, 0.03, block)
	if p.Feasible() {
		t.Fatal("test setup: expected infeasible start")
	}
	imbBefore := p.MaxBlockWeight()
	// A generous band and patience to let the repair happen.
	cfg := TwoWayConfig{Strategy: TopGain, Patience: 1.0, BandDepth: 20}
	for i := 0; i < 10 && !p.Feasible(); i++ {
		RefinePairViewWS(NewWorkspace(), p, p.Block, 0, 1, cfg, uint64(i), uint64(i)+100)
	}
	if p.MaxBlockWeight() >= imbBefore {
		t.Fatalf("overload not reduced: %d -> %d", imbBefore, p.MaxBlockWeight())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRefinePairPerfectStripe(t *testing.T) {
	// An already optimal bisection of a grid must stay optimal.
	g := gen.Grid2D(8, 8)
	block := make([]int32, 64)
	for v := 0; v < 64; v++ {
		block[v] = int32(v / 32)
	}
	p := part.FromBlocks(g, 2, 0.03, block)
	before := p.Cut()
	RefinePairViewWS(NewWorkspace(), p, p.Block, 0, 1, defaultCfg(), 3, 4)
	if p.Cut() > before {
		t.Fatalf("optimal cut worsened: %d -> %d", before, p.Cut())
	}
}

func TestRefinePairOnlyTouchesPair(t *testing.T) {
	g := gen.Grid2D(12, 12)
	n := g.NumNodes()
	block := make([]int32, n)
	for v := 0; v < n; v++ {
		block[v] = int32(4 * v / n)
	}
	p := part.FromBlocks(g, 4, 0.03, block)
	w2, w3 := p.BlockWeight(2), p.BlockWeight(3)
	RefinePairViewWS(NewWorkspace(), p, p.Block, 0, 1, defaultCfg(), 7, 8)
	if p.BlockWeight(2) != w2 || p.BlockWeight(3) != w3 {
		t.Fatal("refining pair (0,1) changed blocks 2/3")
	}
	for v := 0; v < n; v++ {
		if b := p.Block[v]; b == 2 || b == 3 {
			continue
		} else if b != 0 && b != 1 {
			t.Fatal("node moved outside the pair")
		}
	}
}

func TestRefinePairDeterministic(t *testing.T) {
	g := gen.Grid2D(14, 14)
	r := rng.New(9)
	p1 := noisyBisection(g, r)
	p2 := part.FromBlocks(g, 2, 0.03, append([]int32(nil), p1.Block...))
	RefinePairViewWS(NewWorkspace(), p1, p1.Block, 0, 1, defaultCfg(), 42, 43)
	RefinePairViewWS(NewWorkspace(), p2, p2.Block, 0, 1, defaultCfg(), 42, 43)
	for v := range p1.Block {
		if p1.Block[v] != p2.Block[v] {
			t.Fatal("RefinePairViewWS is not deterministic for fixed seeds")
		}
	}
}

func TestBandDepthGrowsBand(t *testing.T) {
	g := gen.Grid2D(20, 20)
	n := g.NumNodes()
	block := make([]int32, n)
	for v := 0; v < n; v++ {
		block[v] = int32(2 * v / n)
	}
	p := part.FromBlocks(g, 2, 0.03, block)
	idx := part.NewBoundaryIndex(p)
	b1 := newPairSearch(idx, p, NewWorkspace(), p.Block, 0, 1, TwoWayConfig{BandDepth: 1}).band
	b5 := newPairSearch(idx, p, NewWorkspace(), p.Block, 0, 1, TwoWayConfig{BandDepth: 5}).band
	if len(b5) <= len(b1) {
		t.Fatalf("band did not grow with depth: %d vs %d", len(b1), len(b5))
	}
	// Depth 1 is exactly the boundary.
	if len(b1) != 40 {
		t.Fatalf("depth-1 band = %d nodes, want 40", len(b1))
	}
	// All band nodes belong to the pair.
	for _, v := range b5 {
		if p.Block[v] != 0 && p.Block[v] != 1 {
			t.Fatal("band contains foreign node")
		}
	}
}

func TestKWayGreedyImproves(t *testing.T) {
	g := gen.Grid2D(16, 16)
	r := rng.New(3)
	n := g.NumNodes()
	block := make([]int32, n)
	for v := 0; v < n; v++ {
		block[v] = int32(r.Intn(4)) // random: terrible cut
	}
	p := part.FromBlocks(g, 4, 0.10, block)
	before := p.Cut()
	gain := KWayGreedy(p, 5, r)
	after := p.Cut()
	if after >= before {
		t.Fatalf("k-way refinement did not improve: %d -> %d", before, after)
	}
	if gain != before-after {
		t.Fatalf("reported gain %d != actual %d", gain, before-after)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestKWayGreedyRespectsLmax(t *testing.T) {
	master := rng.New(8)
	f := func(seed uint16) bool {
		r := master.Split(uint64(seed))
		g := gen.RGG(8, uint64(seed))
		n := g.NumNodes()
		block := make([]int32, n)
		for v := 0; v < n; v++ {
			block[v] = int32(v * 4 / n)
		}
		p := part.FromBlocks(g, 4, 0.03, block)
		feasibleBefore := p.Feasible()
		KWayGreedy(p, 3, r)
		if p.Validate() != nil {
			return false
		}
		return !feasibleBefore || p.Feasible()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRebalance(t *testing.T) {
	g := gen.Grid2D(12, 12)
	n := g.NumNodes()
	block := make([]int32, n) // everything in block 0
	p := part.FromBlocks(g, 4, 0.03, block)
	r := rng.New(2)
	for i := 0; i < 50 && !p.Feasible(); i++ {
		Rebalance(p, r)
	}
	if !p.Feasible() {
		t.Fatalf("rebalance failed: max weight %d > Lmax %d", p.MaxBlockWeight(), p.Lmax())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStrategyStrings(t *testing.T) {
	want := map[Strategy]string{
		TopGain: "TopGain", TopGainMaxLoad: "TopGainMaxLoad",
		MaxLoad: "MaxLoad", Alternate: "Alternate",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("String(%d) = %q", int(s), s.String())
		}
	}
}

func BenchmarkRefinePair(b *testing.B) {
	g := gen.RGG(13, 1)
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		p := noisyBisection(g, r)
		RefinePairViewWS(NewWorkspace(), p, p.Block, 0, 1, defaultCfg(), uint64(i), uint64(i)+1)
	}
}
