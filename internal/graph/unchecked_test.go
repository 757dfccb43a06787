package graph

import "testing"

// buildTestGraph returns a small weighted graph via the Builder.
func buildTestGraph() *Graph {
	b := NewBuilder(6)
	edges := [][3]int64{{0, 1, 3}, {0, 2, 1}, {1, 2, 4}, {2, 3, 2}, {3, 4, 5}, {4, 5, 1}, {0, 5, 7}, {1, 4, 2}, {0, 3, 9}, {0, 4, 4}}
	for _, e := range edges {
		b.AddEdge(int32(e[0]), int32(e[1]), e[2])
	}
	return b.Build()
}

func TestFromCSRTrustedMatchesFromCSR(t *testing.T) {
	g := buildTestGraph()
	n := g.NumNodes()
	xadj := make([]int32, n+1)
	var adj []int32
	var ewgt []int64
	nwgt := make([]int64, n)
	for v := int32(0); v < int32(n); v++ {
		adj = append(adj, g.Adj(v)...)
		ewgt = append(ewgt, g.AdjWeights(v)...)
		xadj[v+1] = int32(len(adj))
		nwgt[v] = g.NodeWeight(v)
	}
	u := FromCSRTrusted(xadj, adj, ewgt, nwgt, CSRAggregates{
		TotalNodeWeight: g.TotalNodeWeight(), TotalEdgeWeight: g.TotalEdgeWeight(),
		MaxNodeWeight: g.MaxNodeWeight()})
	if u.TotalNodeWeight() != g.TotalNodeWeight() ||
		u.TotalEdgeWeight() != g.TotalEdgeWeight() ||
		u.MaxNodeWeight() != g.MaxNodeWeight() ||
		u.NumNodes() != g.NumNodes() || u.NumEdges() != g.NumEdges() {
		t.Fatal("FromCSRTrusted aggregates differ from FromCSR")
	}
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestEdgeWeightToScansRow queries a star's hub row, longer than any short
// path a lookup might take, for every node, and a leaf's short row, against
// the straightforward scan, misses included.
func TestEdgeWeightToScansRow(t *testing.T) {
	b := NewBuilder(20)
	for i := int32(1); i < 20; i++ {
		b.AddEdge(0, i, int64(i)*3)
	}
	g := b.Build()
	for u := int32(0); u < 20; u++ {
		want := int64(0)
		for i, x := range g.Adj(0) {
			if x == u {
				want = g.AdjWeights(0)[i]
			}
		}
		if got := g.EdgeWeightTo(0, u); got != want {
			t.Fatalf("EdgeWeightTo(0,%d) = %d, want %d", u, got, want)
		}
	}
	if g.EdgeWeightTo(1, 0) != 3 || g.EdgeWeightTo(1, 2) != 0 {
		t.Fatal("short-adjacency lookup broken")
	}
}
