// The extraction oracle lives in the external test package so it can compare
// wire.AppendSubgraph bytes (wire imports dist; an internal test would cycle).
package dist_test

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/coarsen"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graph/graphtest"
	"repro/internal/matching"
	"repro/internal/rating"
	"repro/internal/rng"
	"repro/internal/wire"
)

// referenceExtract is the extraction the direct-CSR kernel replaced, kept as
// the oracle: a Go map over every local node, and a graph.Builder round trip
// that re-derives the local CSR edge by edge; like the kernel since shards
// stopped carrying them, it leaves the coordinates out. The kernel must
// produce the same subgraph — and therefore the same shard bytes — for every
// input.
func referenceExtract(t testing.TB, g *graph.Graph, assign []int32, pe int32) *dist.Subgraph {
	var l2g, ghostOwner []int32
	g2l := make(map[int32]int32)
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		if assign[v] == pe {
			g2l[v] = int32(len(l2g))
			l2g = append(l2g, v)
		}
	}
	owned := len(l2g)
	for li := 0; li < owned; li++ {
		for _, u := range g.Adj(l2g[li]) {
			if assign[u] != pe {
				if _, seen := g2l[u]; !seen {
					g2l[u] = int32(len(l2g))
					l2g = append(l2g, u)
					ghostOwner = append(ghostOwner, assign[u])
				}
			}
		}
	}
	b := graph.NewBuilder(len(l2g))
	for li, v := range l2g {
		b.SetNodeWeight(int32(li), g.NodeWeight(v))
	}
	for li := 0; li < owned; li++ {
		v := l2g[li]
		adj, wts := g.Adj(v), g.AdjWeights(v)
		for i, u := range adj {
			lu := g2l[u]
			if int(lu) < owned && lu <= int32(li) {
				continue
			}
			b.AddEdge(int32(li), lu, wts[i])
		}
	}
	sg, err := dist.NewSubgraph(pe, b.Build(), owned, l2g, ghostOwner)
	if err != nil {
		t.Fatalf("reference subgraph of PE %d rejected: %v", pe, err)
	}
	return sg
}

// sameSubgraph compares everything a shard carries: the local CSR arrays,
// node weights, coordinates (none), id maps, ghost owners, the global→local
// index, and the encoded bytes.
func sameSubgraph(t testing.TB, what string, got, want *dist.Subgraph) {
	t.Helper()
	if got.PE != want.PE || got.NumOwned != want.NumOwned ||
		!slices.Equal(got.LocalToGlobal, want.LocalToGlobal) || !slices.Equal(got.GhostOwner, want.GhostOwner) {
		t.Fatalf("%s: PE, owned count, id map or ghost owners differ from the reference", what)
	}
	gl, wl := got.Local, want.Local
	if gl.NumNodes() != wl.NumNodes() || gl.NumEdges() != wl.NumEdges() ||
		gl.TotalNodeWeight() != wl.TotalNodeWeight() || gl.TotalEdgeWeight() != wl.TotalEdgeWeight() ||
		gl.MaxNodeWeight() != wl.MaxNodeWeight() || gl.CoordDims() != wl.CoordDims() {
		t.Fatalf("%s: local graph shape or aggregates differ from the reference", what)
	}
	for lv := int32(0); lv < int32(wl.NumNodes()); lv++ {
		if !slices.Equal(gl.Adj(lv), wl.Adj(lv)) || !slices.Equal(gl.AdjWeights(lv), wl.AdjWeights(lv)) {
			t.Fatalf("%s: row %d is %v %v, reference %v %v", what, lv, gl.Adj(lv), gl.AdjWeights(lv), wl.Adj(lv), wl.AdjWeights(lv))
		}
		if back, ok := got.ToLocal(want.ToGlobal(lv)); !ok || back != lv {
			t.Fatalf("%s: ToLocal(ToGlobal(%d)) = %d, %v", what, lv, back, ok)
		}
	}
	if !slices.Equal(gl.NodeWeights(), wl.NodeWeights()) {
		t.Fatalf("%s: node weights differ from the reference", what)
	}
	gc, wc := gl.CoordSlices(), wl.CoordSlices()
	for d := range wc {
		if !slices.Equal(gc[d], wc[d]) {
			t.Fatalf("%s: coordinate %d differs from the reference", what, d)
		}
	}
	if d := graph.Diff(gl, rebuiltByFromCSR(t, gl)); d != "" {
		t.Fatalf("%s: the local graph extraction adopted differs from graph.FromCSR of the same arrays: %s", what, d)
	}
	gb, err := wire.AppendSubgraph(nil, got)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := wire.AppendSubgraph(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, wb) {
		t.Fatalf("%s: shard encodes to %d bytes that differ from the reference's %d", what, len(gb), len(wb))
	}
}

// rebuiltByFromCSR copies g's arrays out and has graph.FromCSR validate and
// scan them: the graph a kernel that adopts its arrays through FromCSRTrusted
// must have produced, aggregates included.
func rebuiltByFromCSR(t testing.TB, g *graph.Graph) *graph.Graph {
	t.Helper()
	xadj := make([]int32, 1, g.NumNodes()+1)
	adj, ewgt := []int32{}, []int64{}
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		adj, ewgt = append(adj, g.Adj(v)...), append(ewgt, g.AdjWeights(v)...)
		xadj = append(xadj, int32(len(adj)))
	}
	checked, err := graph.FromCSR(xadj, adj, ewgt, slices.Clone(g.NodeWeights()))
	if err != nil {
		t.Fatalf("graph.FromCSR refuses the adopted arrays: %v", err)
	}
	switch x, y, z := g.Coords3(); g.CoordDims() {
	case 2:
		checked.SetCoords(x, y)
	case 3:
		checked.SetCoords3(x, y, z)
	}
	return checked
}

// TestTrustedEqualsFromCSR states the fused-validation property on its own:
// what ExtractOwned adopts without a second walk is what graph.FromCSR makes
// of the same arrays — over sorted and unsorted inputs, real weights, ghosts
// on every side. sameSubgraph holds every other extraction test and the
// fuzzer to it as well.
func TestTrustedEqualsFromCSR(t *testing.T) {
	rgg := gen.RGG(10, 1)
	for name, g := range map[string]*graph.Graph{"rgg": rgg, "rgg/contracted": contracted(rgg), "rmat/contracted": contracted(gen.RMAT(9, 8, 5))} {
		for _, sg := range dist.ExtractAll(g, dist.Assign(g, dist.StrategyAuto, 3), 3) {
			if d := graph.Diff(sg.Local, rebuiltByFromCSR(t, sg.Local)); d != "" {
				t.Fatalf("%s PE %d: adopted graph differs from graph.FromCSR of the same arrays: %s", name, sg.PE, d)
			}
			if sg.Local.UnitEdgeWeights() != g.UnitEdgeWeights() {
				t.Fatalf("%s PE %d: shard of a unit graph %v is a unit graph %v", name, sg.PE, g.UnitEdgeWeights(), sg.Local.UnitEdgeWeights())
			}
		}
	}
}

// checkExtraction runs extraction against the reference.
func checkExtraction(t testing.TB, what string, g *graph.Graph, assign []int32, pes int) {
	t.Helper()
	all := dist.ExtractAll(g, assign, pes)
	for pe := int32(0); pe < int32(pes); pe++ {
		want := referenceExtract(t, g, assign, pe)
		sameSubgraph(t, what+"/ExtractAll", all[pe], want)
	}
}

// contracted returns one contraction of g: weighted nodes and edges, and
// adjacency in first-encounter order — the unsorted input every level but
// the first hands extraction.
func contracted(g *graph.Graph) *graph.Graph {
	rt := rating.NewRater(rating.ExpansionStar2, g)
	cg, _ := coarsen.ContractWith(g, matching.ComputeScratch(g, rt, matching.GPA, rng.New(5), 0, nil), coarsen.Options{})
	return cg
}

func TestExtractMatchesReference(t *testing.T) {
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
	for _, name := range []string{"rgg", "grid3d", "rmat"} {
		cg := contracted(graphs[name])
		if graphtest.RowsAscend(cg) {
			t.Fatalf("%s: contraction came out with sorted adjacency; the unsorted case is not covered", name)
		}
		graphs[name+"/contracted"] = cg
		graphs[name+"/contracted twice"] = contracted(cg)
	}
	r := rng.New(11)
	for name, g := range graphs {
		n := g.NumNodes()
		for _, pes := range []int{1, 2, 3, 7} {
			for _, s := range []dist.Strategy{dist.StrategyAuto, dist.StrategyRanges} {
				checkExtraction(t, name+"/"+s.String(), g, dist.Assign(g, s, pes), pes)
			}
			// Scattered ownership: most neighbours are ghosts, on every PE.
			scattered := make([]int32, n)
			for v := range scattered {
				scattered[v] = int32(r.Intn(pes))
			}
			checkExtraction(t, name+"/scattered", g, scattered, pes)
		}
		// PEs that own nothing: the last one, and one in the middle.
		checkExtraction(t, name+"/empty last PE", g, make([]int32, n), 2)
		ends := make([]int32, n)
		for v := n / 2; v < n; v++ {
			ends[v] = 2
		}
		checkExtraction(t, name+"/empty middle PE", g, ends, 3)
	}
}

// FuzzExtractMatchesReference derives a small weighted graph, optionally with
// its rows reversed (valid, symmetric, unsorted), and an assignment from the
// input and holds the extraction kernel to the reference on every PE.
func FuzzExtractMatchesReference(f *testing.F) {
	f.Add(uint8(2), false, []byte("0123456789abcdefghijklmnopqrstuvwxyz"))
	f.Add(uint8(3), true, []byte{0, 1, 9, 1, 2, 9, 2, 3, 9, 3, 0, 9, 0, 2, 1, 7, 7, 7})
	f.Add(uint8(5), true, []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, pes uint8, reverse bool, data []byte) {
		if pes == 0 || pes > 8 {
			pes = 1 + pes%8
		}
		const n = 24
		b := graph.NewBuilder(n)
		for i := 0; i+2 < len(data) && i < 600; i += 3 {
			b.AddEdge(int32(data[i]%n), int32(data[i+1]%n), int64(data[i+2]%5)+1)
			b.SetNodeWeight(int32(data[i]%n), int64(data[i+2]%3)+1)
			b.SetCoord(int32(data[i+1]%n), float64(data[i]), float64(data[i+2]))
		}
		g := b.Build()
		if reverse {
			xadj := make([]int32, n+1)
			var adj []int32
			var ewgt []int64
			for v := int32(0); v < n; v++ {
				adj = append(adj, g.Adj(v)...)
				ewgt = append(ewgt, g.AdjWeights(v)...)
				slices.Reverse(adj[xadj[v]:])
				slices.Reverse(ewgt[xadj[v]:])
				xadj[v+1] = int32(len(adj))
			}
			rg, err := graph.FromCSR(xadj, adj, ewgt, slices.Clone(g.NodeWeights()))
			if err != nil {
				t.Fatal(err)
			}
			if x, y := g.Coords(); x != nil {
				rg.SetCoords(x, y)
			}
			g = rg
		}
		assign := make([]int32, n)
		for v := range assign {
			if v < len(data) {
				assign[v] = int32(data[len(data)-1-v] % pes)
			}
		}
		checkExtraction(t, "fuzz", g, assign, int(pes))
	})
}
