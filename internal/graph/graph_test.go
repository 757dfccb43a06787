package graph

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// path5 builds the path 0-1-2-3-4 with unit weights.
func path5() *Graph {
	b := NewBuilder(5)
	for i := int32(0); i < 4; i++ {
		b.AddEdge(i, i+1, 1)
	}
	return b.Build()
}

func TestBuilderBasic(t *testing.T) {
	g := path5()
	if g.NumNodes() != 5 || g.NumEdges() != 4 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if g.Degree(0) != 1 || g.Degree(2) != 2 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(0), g.Degree(2))
	}
	if g.TotalEdgeWeight() != 4 || g.TotalNodeWeight() != 5 {
		t.Fatalf("weights wrong: %d %d", g.TotalEdgeWeight(), g.TotalNodeWeight())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderMergesParallelEdges(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 0, 3) // same edge, reversed
	b.AddEdge(1, 2, 1)
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if w := g.EdgeWeightTo(0, 1); w != 5 {
		t.Fatalf("merged weight = %d, want 5", w)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderDropsSelfLoops(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 0, 7)
	b.AddEdge(0, 1, 1)
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 5, 1)
}

func TestNodeWeights(t *testing.T) {
	b := NewBuilder(3)
	b.SetNodeWeight(0, 10)
	b.SetNodeWeight(2, 4)
	b.AddEdge(0, 1, 1)
	g := b.Build()
	if g.NodeWeight(0) != 10 || g.NodeWeight(1) != 1 || g.NodeWeight(2) != 4 {
		t.Fatal("node weights lost")
	}
	if g.TotalNodeWeight() != 15 || g.MaxNodeWeight() != 10 {
		t.Fatalf("totals: %d %d", g.TotalNodeWeight(), g.MaxNodeWeight())
	}
}

func TestWeightedDegree(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 3)
	b.AddEdge(0, 2, 4)
	g := b.Build()
	if g.WeightedDegree(0) != 7 || g.WeightedDegree(1) != 3 {
		t.Fatal("WeightedDegree wrong")
	}
}

// TestDropCoarseningData drops a weighted 3D graph's coordinates, the way a
// contracted coarse level does: every coordinate read must panic instead of
// reporting a graph without geometry, and the rows must stay as they were.
func TestDropCoarseningData(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1, 3)
	b.AddEdge(1, 2, 5)
	b.AddEdge(2, 3, 2)
	g := b.Build()
	g.SetCoords([]float64{0, 1, 2, 3}, []float64{1, 1, 1, 1}, []float64{2, 2, 2, 2})
	g.DropCoarseningData()
	for v, want := range []int64{3, 8, 7, 2} {
		if got := g.WeightedDegree(int32(v)); got != want {
			t.Fatalf("weighted degree of %d after the drop %d, want %d", v, got, want)
		}
	}
	reads := map[string]func(){
		"HasCoords": func() { g.HasCoords() },
		"CoordDims": func() { g.CoordDims() },
		"Coords":    func() { g.Coords() },
	}
	for name, read := range reads {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after the drop did not panic", name)
				}
			}()
			read()
		}()
	}
}

func TestFromCSRRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		xadj []int32
		adj  []int32
		ewgt []int64
	}{
		{"inconsistent", []int32{0, 1}, []int32{}, []int64{}},
		{"badNeighbor", []int32{0, 1}, []int32{5}, []int64{1}},
		{"zeroWeight", []int32{0, 1, 2}, []int32{1, 0}, []int64{0, 0}},
		{"nonMonotone", []int32{0, 2, 1}, []int32{1, 1}, []int64{1, 1}},
	}
	for _, c := range cases {
		if _, err := FromCSR(c.xadj, c.adj, c.ewgt, nil); err == nil {
			t.Errorf("%s: FromCSR accepted invalid input", c.name)
		}
	}
}

func TestValidateCatchesAsymmetry(t *testing.T) {
	// 0->1 weight 1 but 1->0 weight 2.
	g, err := FromCSR([]int32{0, 1, 2}, []int32{1, 0}, []int64{1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted asymmetric weights")
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(3, 4, 1)
	g := b.Build() // components {0,1,2}, {3,4}, {5}
	comp, nc := g.ConnectedComponents()
	if nc != 3 {
		t.Fatalf("nc = %d, want 3", nc)
	}
	if comp[0] != comp[2] || comp[3] != comp[4] || comp[0] == comp[3] || comp[5] == comp[0] {
		t.Fatalf("bad labels %v", comp)
	}
}

func TestLargestComponent(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 3)
	b.AddEdge(3, 4, 1)
	g := b.Build()
	sub, m := g.LargestComponent()
	if sub.NumNodes() != 3 || sub.NumEdges() != 2 {
		t.Fatalf("largest component n=%d m=%d", sub.NumNodes(), sub.NumEdges())
	}
	if m == nil || len(m) != 3 {
		t.Fatal("mapping missing")
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSubgraphPreservesWeightsAndCoords extracts the largest component
// {0, 1, 3} of a graph with node weights, edge weights and coordinates, in
// two and in three dimensions: every one must reach the subgraph, the
// coordinates bit for bit. SetCoords must refuse anything but 2 or 3 slices
// of length n.
func TestSubgraphPreservesWeightsAndCoords(t *testing.T) {
	for _, dims := range []int{2, 3} {
		b := NewBuilder(5)
		cs := make([][]float64, dims)
		for d := range cs {
			cs[d] = make([]float64, 5)
		}
		for v := int32(0); v < 5; v++ {
			for d := range cs {
				cs[d][v] = float64(v) / float64(d-3)
			}
			b.SetNodeWeight(v, int64(v+1))
		}
		b.AddEdge(0, 1, 5)
		b.AddEdge(1, 3, 7)
		b.AddEdge(2, 4, 6)
		g := b.Build()
		g.SetCoords(cs...)
		sub, new2old := g.LargestComponent()
		if sub.NumNodes() != 3 || sub.NumEdges() != 2 || !slices.Equal(new2old, []int32{0, 1, 3}) || sub.CoordDims() != dims {
			t.Fatalf("%dD: sub n=%d m=%d dims %d, mapping %v", dims, sub.NumNodes(), sub.NumEdges(), sub.CoordDims(), new2old)
		}
		for nv, ov := range new2old {
			if sub.NodeWeight(int32(nv)) != g.NodeWeight(ov) {
				t.Fatalf("%dD: node %d lost its weight", dims, nv)
			}
			for d, c := range g.Coords() {
				if math.Float64bits(sub.Coords()[d][nv]) != math.Float64bits(c[ov]) {
					t.Fatalf("%dD: node %d lost coordinate %d", dims, nv, d)
				}
			}
		}
		if sub.EdgeWeightTo(0, 1) != 5 || sub.EdgeWeightTo(1, 2) != 7 {
			t.Fatalf("%dD: edge weights %d, %d, want 5, 7", dims, sub.EdgeWeightTo(0, 1), sub.EdgeWeightTo(1, 2))
		}
	}
	g, five, four := path5(), make([]float64, 5), make([]float64, 4)
	for name, cs := range map[string][][]float64{
		"one slice":   {five},
		"four slices": {five, five, five, five},
		"short slice": {five, four},
		"short z":     {five, five, four},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetCoords with %s did not panic", name)
				}
			}()
			g.SetCoords(cs...)
		}()
	}
}

// The METIS/binary file codecs (and their tests) live in internal/graphio.

// TestBuilderRandomInvariants: random multigraph input always yields a valid
// simple graph whose total weight matches the sum of added weights.
func TestBuilderRandomInvariants(t *testing.T) {
	master := rng.New(77)
	f := func(seed uint16) bool {
		r := master.Split(uint64(seed))
		n := 2 + r.Intn(30)
		b := NewBuilder(n)
		var total int64
		for e := 0; e < 3*n; e++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			w := int64(1 + r.Intn(9))
			b.AddEdge(u, v, w)
			if u != v {
				total += w
			}
		}
		g := b.Build()
		if g.Validate() != nil {
			return false
		}
		return g.TotalEdgeWeight() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuild(b *testing.B) {
	r := rng.New(2)
	const n = 1 << 14
	for i := 0; i < b.N; i++ {
		bd := NewBuilder(n)
		for e := 0; e < 4*n; e++ {
			bd.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)), 1)
		}
		bd.Build()
	}
}

// TestUnitGraphStoresNoWeights pins the unit representation: weights that
// are all 1 keep only a ones run as long as the largest degree, whichever
// input constructor saw them, and read back exactly as the materialised
// weights do; one weight of 2 keeps the array; and a row's weights have no
// room past their length, so an append cannot write into the shared run.
func TestUnitGraphStoresNoWeights(t *testing.T) {
	b := NewBuilder(5)
	for _, e := range [][2]int32{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {3, 4}} {
		b.AddEdge(e[0], e[1], 1)
	}
	g := b.Build()
	if !g.UnitEdgeWeights() || len(g.ewgt) != 3 {
		t.Fatalf("unit graph: unit %v, %d weights stored, want the largest degree 3", g.UnitEdgeWeights(), len(g.ewgt))
	}
	ones := make([]int64, len(g.adj))
	for i := range ones {
		ones[i] = 1
	}
	materialised := FromCSRTrusted(g.xadj, g.adj, ones, g.nwgt, CSRAggregates{TotalNodeWeight: 5, TotalEdgeWeight: 5, MaxNodeWeight: 1})
	if materialised.UnitEdgeWeights() {
		t.Fatal("FromCSRTrusted dropped weights it was given")
	}
	if d := Diff(g, materialised); d != "" {
		t.Fatalf("unit graph differs from its materialised copy: %s", d)
	}
	fromCSR, err := FromCSR(slices.Clone(g.xadj), slices.Clone(g.adj), slices.Clone(ones), nil)
	if err != nil || !fromCSR.UnitEdgeWeights() {
		t.Fatalf("FromCSR of unit weights: %v, unit %v", err, err == nil && fromCSR.UnitEdgeWeights())
	}
	for v := int32(0); v < 5; v++ {
		ws := g.AdjWeights(v)
		if cap(ws) != len(ws) {
			t.Fatalf("row %d: %d weights with room for %d", v, len(ws), cap(ws))
		}
		_ = append(ws, 7)
	}
	if slices.ContainsFunc(g.ewgt, func(w int64) bool { return w != 1 }) {
		t.Fatalf("ones run written to: %v", g.ewgt)
	}

	heavy := slices.Clone(ones)
	heavy[0] = 2 // 0→1, and 1→0 below, so the graph stays symmetric
	heavy[g.xadj[1]] = 2
	weighted, err := FromCSR(slices.Clone(g.xadj), slices.Clone(g.adj), heavy, nil)
	if err != nil || weighted.UnitEdgeWeights() || len(weighted.ewgt) != len(g.adj) {
		t.Fatalf("one weight of 2: %v, unit %v", err, err == nil && weighted.UnitEdgeWeights())
	}
	if weighted.EdgeWeightTo(0, 1) != 2 || weighted.EdgeWeightTo(1, 0) != 2 || weighted.TotalEdgeWeight() != 6 {
		t.Fatal("weighted graph reads the wrong weights")
	}
}
