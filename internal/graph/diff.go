package graph

import (
	"fmt"
	"math"
	"slices"
)

// Diff describes the first difference between two graphs in anything a
// caller can observe — node and edge counts, every adjacency row and its
// weights, node weights, coordinates (bit for bit, so a NaN equals itself)
// and the aggregates — or returns "" when there is none. How the weights are stored is not observable: a unit graph
// equals the same graph with its ones materialised. It is the graph equality
// of the reference tests that hold a kernel to a simpler implementation.
func Diff(got, want *Graph) string {
	if got == nil || want == nil {
		if got != want {
			return fmt.Sprintf("one graph is nil: %v, %v", got, want)
		}
		return ""
	}
	n := want.NumNodes()
	if got.NumNodes() != n || got.NumEdges() != want.NumEdges() {
		return fmt.Sprintf("%d nodes and %d edges, want %d and %d", got.NumNodes(), got.NumEdges(), n, want.NumEdges())
	}
	type aggregates struct {
		node, edge, heaviest int64
		dims                 int
	}
	ga := aggregates{got.TotalNodeWeight(), got.TotalEdgeWeight(), got.MaxNodeWeight(), got.CoordDims()}
	wa := aggregates{want.TotalNodeWeight(), want.TotalEdgeWeight(), want.MaxNodeWeight(), want.CoordDims()}
	if ga != wa {
		return fmt.Sprintf("aggregates (node weight, edge weight, heaviest node, dims) %+v, want %+v", ga, wa)
	}
	for v := int32(0); v < int32(n); v++ {
		if !slices.Equal(got.Adj(v), want.Adj(v)) || !slices.Equal(got.AdjWeights(v), want.AdjWeights(v)) {
			return fmt.Sprintf("row %d is %v %v, want %v %v", v, got.Adj(v), got.AdjWeights(v), want.Adj(v), want.AdjWeights(v))
		}
	}
	if !slices.Equal(got.NodeWeights(), want.NodeWeights()) {
		return "node weights differ"
	}
	gc, wc := got.Coords(), want.Coords()
	for d := range wc {
		if !slices.EqualFunc(gc[d], wc[d], func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			return fmt.Sprintf("coordinate %d differs", d)
		}
	}
	return ""
}
