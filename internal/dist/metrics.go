package dist

import "repro/internal/graph"

// EdgeLocality returns the fraction of total edge weight whose endpoints
// live on the same PE — the quantity a good prepartition maximizes, since
// only local edges can be matched without the gap-graph phase (§3.3). A
// graph without edges has locality 1.
func EdgeLocality(g *graph.Graph, assign []int32) float64 {
	var local, total int64
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		adj, wts := g.Adj(v), g.AdjWeights(v)
		for i, u := range adj {
			if u <= v {
				continue // count each undirected edge once
			}
			total += wts[i]
			if assign[v] == assign[u] {
				local += wts[i]
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(local) / float64(total)
}

// blockWeights returns the total node weight assigned to each PE.
func blockWeights(g *graph.Graph, assign []int32, pes int) []int64 {
	w := make([]int64, pes)
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		w[assign[v]] += g.NodeWeight(v)
	}
	return w
}

// Imbalance returns max PE weight divided by the average PE weight (1.0 is
// perfect balance, like part.Partition.Imbalance). Degenerate inputs — no
// PEs, or zero total weight as with n = 0 or all-zero node weights — report
// 1.0 rather than dividing by zero.
func Imbalance(g *graph.Graph, assign []int32, pes int) float64 {
	if pes <= 0 {
		return 1
	}
	weights := blockWeights(g, assign, pes)
	var total, max int64
	for _, w := range weights {
		total += w
		if w > max {
			max = w
		}
	}
	if total == 0 {
		return 1
	}
	avg := float64(total) / float64(pes)
	return float64(max) / avg
}
