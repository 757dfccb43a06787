package coarsen

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rating"
)

// distContract runs the full distributed coarsening step (extract, match,
// contract, stitch) and returns its products plus the number of pairs the
// PEs matched.
func distContract(t *testing.T, g *graph.Graph, pes int, seed uint64) (*graph.Graph, []int32, int) {
	t.Helper()
	ex := dist.NewExchanger(pes)
	assign := dist.Assign(g, dist.StrategyAuto, pes)
	sgs := dist.ExtractAll(g, assign, pes)
	ms := matching.DistributedBounded(sgs, ex, rating.ExpansionStar2, matching.GPA, seed, 0, true)
	matched := 0 // owned endpoints: an internal pair has two on one PE, a cut pair one on each
	for pe, m := range ms {
		if err := m.Validate(sgs[pe].Local); err != nil {
			t.Fatalf("PE %d: matching invalid: %v", pe, err)
		}
		for _, u := range m[:sgs[pe].NumOwned] {
			if u >= 0 {
				matched++
			}
		}
	}
	cg, f2c := ContractDistributed(nil, g, sgs, ms, ex)
	return cg, f2c, matched / 2
}

// TestContractDistributedMatchesShared stitches the PE-local contractions
// and checks them against a shared-memory contraction of the matching the
// stitched fine→coarse map groups by — one coarse node per pair the PEs
// matched, every group an edge of the fine graph: identical coarse node
// count, identical member groups, and identical coarse edge weights between
// corresponding groups.
func TestContractDistributedMatchesShared(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		pes  int
	}{
		{"grid", gen.Grid2D(16, 16), 4},
		{"rgg", gen.RGG(9, 5), 5},
		{"road", gen.Road(600, 4, 6), 3},
	} {
		cg, f2c, pairs := distContract(t, tc.g, tc.pes, 17)
		if want := tc.g.NumNodes() - pairs; cg.NumNodes() != want {
			t.Fatalf("%s: %d coarse nodes for %d matched pairs, want %d", tc.name, cg.NumNodes(), pairs, want)
		}
		gm := matching.NewEmpty(tc.g.NumNodes())
		first := make([]int32, cg.NumNodes()) // 1 + the last fine node seen in each group
		for v, c := range f2c {
			if u := first[c] - 1; u >= 0 {
				gm[u], gm[v] = int32(v), u
			}
			first[c] = int32(v) + 1
		}
		if err := gm.Validate(tc.g); err != nil {
			t.Fatalf("%s: coarse groups are not a matching: %v", tc.name, err)
		}
		sg, sf2c := Contract(tc.g, gm)

		if cg.NumNodes() != sg.NumNodes() {
			t.Fatalf("%s: %d coarse nodes distributed vs %d shared", tc.name, cg.NumNodes(), sg.NumNodes())
		}
		if err := cg.Validate(); err != nil {
			t.Fatalf("%s: stitched graph invalid: %v", tc.name, err)
		}
		if cg.TotalNodeWeight() != tc.g.TotalNodeWeight() {
			t.Fatalf("%s: node weight not conserved: %d vs %d", tc.name, cg.TotalNodeWeight(), tc.g.TotalNodeWeight())
		}

		// The two contractions may number coarse nodes differently; relate
		// them through any fine member node.
		n := tc.g.NumNodes()
		d2s := make([]int32, cg.NumNodes())
		for i := range d2s {
			d2s[i] = -1
		}
		for v := 0; v < n; v++ {
			dc, sc := f2c[v], sf2c[v]
			if d2s[dc] >= 0 && d2s[dc] != sc {
				t.Fatalf("%s: fine node %d splits coarse node %d across %d and %d", tc.name, v, dc, d2s[dc], sc)
			}
			d2s[dc] = sc
		}
		for dc := int32(0); dc < int32(cg.NumNodes()); dc++ {
			sc := d2s[dc]
			if cg.NodeWeight(dc) != sg.NodeWeight(sc) {
				t.Fatalf("%s: coarse node %d weight %d vs shared %d", tc.name, dc, cg.NodeWeight(dc), sg.NodeWeight(sc))
			}
			if cg.Degree(dc) != sg.Degree(sc) {
				t.Fatalf("%s: coarse node %d degree %d vs shared %d", tc.name, dc, cg.Degree(dc), sg.Degree(sc))
			}
			adj, ws := cg.Adj(dc), cg.AdjWeights(dc)
			for i, du := range adj {
				if w := sg.EdgeWeightTo(sc, d2s[du]); w != ws[i] {
					t.Fatalf("%s: coarse edge {%d,%d} weight %d vs shared %d", tc.name, dc, du, ws[i], w)
				}
			}
		}
	}
}

// TestContractDistributedDeterminism reruns the whole distributed level and
// expects byte-identical products.
func TestContractDistributedDeterminism(t *testing.T) {
	g := gen.DelaunayX(9, 4)
	cg1, f2c1, _ := distContract(t, g, 6, 23)
	cg2, f2c2, _ := distContract(t, g, 6, 23)
	if cg1.NumNodes() != cg2.NumNodes() || cg1.NumEdges() != cg2.NumEdges() {
		t.Fatalf("coarse shape differs across runs: %d/%d vs %d/%d",
			cg1.NumNodes(), cg1.NumEdges(), cg2.NumNodes(), cg2.NumEdges())
	}
	for v := range f2c1 {
		if f2c1[v] != f2c2[v] {
			t.Fatalf("fine2coarse differs at node %d: %d vs %d", v, f2c1[v], f2c2[v])
		}
	}
	for v := int32(0); v < int32(cg1.NumNodes()); v++ {
		a1, a2 := cg1.Adj(v), cg2.Adj(v)
		w1, w2 := cg1.AdjWeights(v), cg2.AdjWeights(v)
		if len(a1) != len(a2) {
			t.Fatalf("degree differs at coarse node %d", v)
		}
		for i := range a1 {
			if a1[i] != a2[i] || w1[i] != w2[i] {
				t.Fatalf("adjacency differs at coarse node %d", v)
			}
		}
	}
}

// TestContractDistributedEmptyPE contracts with an assignment that leaves
// one PE without any nodes; the exchange rounds must not deadlock and the
// stitched result must still be consistent.
func TestContractDistributedEmptyPE(t *testing.T) {
	g := gen.Grid2D(6, 6)
	assign := make([]int32, g.NumNodes())
	for v := range assign {
		assign[v] = int32(v % 2 * 2) // PEs 0 and 2 own everything, PE 1 nothing
	}
	sgs := dist.ExtractAll(g, assign, 3)
	ex := dist.NewExchanger(3)
	ms := matching.DistributedBounded(sgs, ex, rating.ExpansionStar2, matching.GPA, 9, 0, true)
	cg, f2c := ContractDistributed(nil, g, sgs, ms, ex)
	if err := cg.Validate(); err != nil {
		t.Fatalf("stitched graph invalid: %v", err)
	}
	if cg.TotalNodeWeight() != g.TotalNodeWeight() {
		t.Fatal("node weight not conserved")
	}
	for v, c := range f2c {
		if c < 0 || int(c) >= cg.NumNodes() {
			t.Fatalf("fine2coarse[%d] = %d out of range", v, c)
		}
	}
}
