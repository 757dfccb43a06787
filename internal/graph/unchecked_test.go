package graph

import (
	"testing"

	"repro/internal/par"
)

// buildTestGraph returns a small weighted graph via the Builder (sorted
// adjacency, so the EdgeWeightTo fast path is armed).
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
		MaxNodeWeight: g.MaxNodeWeight(), AdjSorted: g.AdjSorted()})
	if u.TotalNodeWeight() != g.TotalNodeWeight() ||
		u.TotalEdgeWeight() != g.TotalEdgeWeight() ||
		u.MaxNodeWeight() != g.MaxNodeWeight() || u.AdjSorted() != g.AdjSorted() ||
		u.NumNodes() != g.NumNodes() || u.NumEdges() != g.NumEdges() {
		t.Fatal("FromCSRTrusted aggregates differ from FromCSR")
	}
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeWeightToSortedFastPath(t *testing.T) {
	// A star with > 8 neighbors arms the binary search; verify every query
	// against the straightforward scan, including misses.
	b := NewBuilder(20)
	for i := int32(1); i < 20; i++ {
		b.AddEdge(0, i, int64(i)*3)
	}
	g := b.Build()
	if !g.AdjSorted() {
		t.Fatal("builder output must be detected as sorted")
	}
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
		t.Fatal("short-adjacency linear path broken")
	}
}

func TestWeightedDegreesCache(t *testing.T) {
	g := buildTestGraph()
	wd := g.WeightedDegrees()
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		if wd[v] != g.WeightedDegree(v) {
			t.Fatalf("cached Out(%d) = %d, want %d", v, wd[v], g.WeightedDegree(v))
		}
	}
	if &wd[0] != &g.WeightedDegrees()[0] {
		t.Fatal("WeightedDegrees must return the same cached slice")
	}
	// Pre-filled cache must win over lazy computation.
	pre := make([]int64, g.NumNodes())
	for i := range pre {
		pre[i] = g.WeightedDegree(int32(i))
	}
	g2 := buildTestGraph()
	g2.SetWeightedDegrees(pre)
	if &g2.WeightedDegrees()[0] != &pre[0] {
		t.Fatal("SetWeightedDegrees slice must be adopted")
	}
}

// TestWeightedDegreesAboveFloorOnCrew sums the weighted degrees of a graph
// past the ParallelRanges floor as one range, on goroutines started for the
// call (one range at GOMAXPROCS 1) and on crews of two and three members, and expects WeightedDegree for
// every node each time.
func TestWeightedDegreesAboveFloorOnCrew(t *testing.T) {
	const n = 4096
	var l EdgeList
	for v := range n {
		for d := 1; d <= 6; d++ {
			l.U, l.V, l.W = append(l.U, int32(v)), append(l.V, int32((v+d*d)%n)), append(l.W, int64(v%7+d))
		}
	}
	one, two, three := par.Start(1, 0), par.Start(2, par.Spin), par.Start(3, 0)
	defer two.Stop()
	defer three.Stop()
	for name, run := range map[string]*par.Crew{"one member": one, "nil": nil, "two members": two, "three members": three} {
		w := make([]int64, n)
		for i := range w {
			w[i] = 1
		}
		g, err := FromEdgeLists(w, []EdgeList{l})
		if err != nil {
			t.Fatal(err)
		}
		if run.Members() > 1 && ParallelRanges(run, 2*g.NumEdges()) < 2 {
			t.Fatalf("%s: %d half-edges do not split", name, 2*g.NumEdges())
		}
		wd := g.WeightedDegreesOn(run)
		for v := range int32(n) {
			if wd[v] != g.WeightedDegree(v) {
				t.Fatalf("%s: Out(%d) = %d, want %d", name, v, wd[v], g.WeightedDegree(v))
			}
		}
	}
}
