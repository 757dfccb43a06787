package graph

// ConnectedComponents returns a component label in [0, #components) for each
// node and the number of components.
func (g *Graph) ConnectedComponents() ([]int32, int) {
	n := g.NumNodes()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var queue []int32
	next := int32(0)
	for s := int32(0); s < int32(n); s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = next
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, u := range g.Adj(v) {
				if comp[u] < 0 {
					comp[u] = next
					queue = append(queue, u)
				}
			}
		}
		next++
	}
	return comp, int(next)
}

// IsConnected reports whether the graph has exactly one connected component
// (the empty graph counts as connected).
func (g *Graph) IsConnected() bool {
	if g.NumNodes() == 0 {
		return true
	}
	_, c := g.ConnectedComponents()
	return c == 1
}

// LargestComponent extracts the subgraph induced by the largest connected
// component. It returns the subgraph and the mapping new→old node ids. If
// the graph is connected it is returned unchanged with a nil mapping.
func (g *Graph) LargestComponent() (*Graph, []int32) {
	comp, nc := g.ConnectedComponents()
	if nc <= 1 {
		return g, nil
	}
	size := make([]int64, nc)
	for _, c := range comp {
		size[c]++
	}
	best := int32(0)
	for c := 1; c < nc; c++ {
		if size[c] > size[best] {
			best = int32(c)
		}
	}
	keep := make([]bool, g.NumNodes())
	for v, c := range comp {
		keep[v] = c == best
	}
	return g.Subgraph(keep)
}

// Subgraph extracts the subgraph induced by the nodes with keep[v] == true.
// It returns the subgraph and the new→old node id mapping. Coordinates are
// carried over when present.
func (g *Graph) Subgraph(keep []bool) (*Graph, []int32) {
	n := g.NumNodes()
	old2new := make([]int32, n)
	var new2old []int32
	for v := 0; v < n; v++ {
		if keep[v] {
			old2new[v] = int32(len(new2old))
			new2old = append(new2old, int32(v))
		} else {
			old2new[v] = -1
		}
	}
	b := NewBuilder(len(new2old))
	for nv, ov := range new2old {
		b.SetNodeWeight(int32(nv), g.NodeWeight(ov))
		if g.HasCoords() {
			x, y := g.Coord(ov)
			b.SetCoord(int32(nv), x, y)
		}
		adj := g.Adj(ov)
		ws := g.AdjWeights(ov)
		for i, ou := range adj {
			if ou > ov && keep[ou] { // each undirected edge once
				b.AddEdge(int32(nv), old2new[ou], ws[i])
			}
		}
	}
	return b.Build(), new2old
}

// Stats summarizes basic graph properties (Table 1 of the paper reports n
// and m per instance; the harness also reports degree extremes).
type Stats struct {
	Nodes           int
	Edges           int
	MinDegree       int
	MaxDegree       int
	AvgDegree       float64
	TotalNodeWeight int64
	TotalEdgeWeight int64
}

// ComputeStats returns summary statistics.
func (g *Graph) ComputeStats() Stats {
	s := Stats{
		Nodes:           g.NumNodes(),
		Edges:           g.NumEdges(),
		TotalNodeWeight: g.TotalNodeWeight(),
		TotalEdgeWeight: g.TotalEdgeWeight(),
	}
	if s.Nodes == 0 {
		return s
	}
	s.MinDegree = g.Degree(0)
	for v := int32(0); v < int32(s.Nodes); v++ {
		d := g.Degree(v)
		if d < s.MinDegree {
			s.MinDegree = d
		}
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	s.AvgDegree = 2 * float64(s.Edges) / float64(s.Nodes)
	return s
}
