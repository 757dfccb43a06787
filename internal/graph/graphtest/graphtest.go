// Package graphtest holds what the tests of several packages share about
// graphs: the plain induced-subgraph builder that the one-pass split is held
// to, the degree summary the generators' tests check their shape by, and
// whether a graph's rows ascend. Nothing outside tests imports it.
package graphtest

import (
	"slices"

	"repro/internal/graph"
)

// RowsAscend reports whether every row of g lists its neighbours in
// ascending order, as a Builder leaves them; contraction keeps each row's
// first-encounter order, so a test that wants unsorted rows checks for them.
func RowsAscend(g *graph.Graph) bool {
	for v := range int32(g.NumNodes()) {
		if !slices.IsSorted(g.Adj(v)) {
			return false
		}
	}
	return true
}

// InducedSubgraph is the subgraph the nodes with keep[v] induce on g, built
// the plain way — every kept edge once through a graph.Builder — with its
// coordinates and the new→old node id mapping. It is the oracle of
// graph.Graph.Split and of LargestComponent, which the tests that hold them
// to it compose from ConnectedComponents.
func InducedSubgraph(g *graph.Graph, keep []bool) (*graph.Graph, []int32) {
	old2new := make([]int32, g.NumNodes())
	var new2old []int32
	for v, k := range keep {
		if k {
			old2new[v] = int32(len(new2old))
			new2old = append(new2old, int32(v))
		}
	}
	b := graph.NewBuilder(len(new2old))
	for nv, ov := range new2old {
		b.SetNodeWeight(int32(nv), g.NodeWeight(ov))
		ws := g.AdjWeights(ov)
		for i, ou := range g.Adj(ov) {
			if ou > ov && keep[ou] { // each undirected edge once
				b.AddEdge(int32(nv), old2new[ou], ws[i])
			}
		}
	}
	sub := b.Build()
	if cs := g.Coords(); cs != nil {
		scs := make([][]float64, len(cs))
		for d, c := range cs {
			for _, ov := range new2old {
				scs[d] = append(scs[d], c[ov])
			}
		}
		sub.SetCoords(scs...)
	}
	return sub, new2old
}

// DegreeStats returns the largest degree of g and its average degree 2m/n
// (zeros for an empty graph).
func DegreeStats(g *graph.Graph) (maxDeg int, avg float64) {
	n := g.NumNodes()
	if n == 0 {
		return 0, 0
	}
	for v := range int32(n) {
		maxDeg = max(maxDeg, g.Degree(v))
	}
	return maxDeg, 2 * float64(g.NumEdges()) / float64(n)
}
