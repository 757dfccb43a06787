package graph

import "repro/internal/mem"

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

// LargestComponent extracts the subgraph induced by the largest connected
// component, with its coordinates. It returns the subgraph and the mapping
// new→old node ids. If the graph is connected it is returned unchanged with
// a nil mapping.
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
	side := make([]byte, len(comp))
	new2old := make([]int32, 0, size[best])
	for v, c := range comp {
		if c == best {
			new2old = append(new2old, int32(v))
		} else {
			side[v] = 1
		}
	}
	var rs RowSorter
	lc, _ := g.Split(side, comp, &rs, nil) // comp, read for the last time above, is its scratch
	if cs := g.Coords(); cs != nil {
		lc.coords = make([][]float64, len(cs))
		for d, c := range cs {
			lc.coords[d] = make([]float64, len(new2old))
			for nv, ov := range new2old {
				lc.coords[d][nv] = c[ov]
			}
		}
	}
	return lc, new2old
}

// Split returns the two subgraphs the sides of g's nodes induce: node v goes
// to side side[v] (0 or 1), and each side numbers its nodes in node order.
// local, of length n, is scratch that receives each node's number in its
// side; rs sorts the rows. One pass over g's adjacency writes both sides
// straight into CSR arrays sized by their degree sums (the cut's half-edges
// are the slack). Rows come out ascending, as a Builder would leave them:
// numbering is monotone within a side, so a row g holds in order costs its
// sort about one compare per entry. A unit g gives unit sides. Coordinates
// are not carried. The sides' CSR arrays come from a (nil = allocate); a
// caller that borrows them hands them back with Release.
//
//kappa:hotpath
func (g *Graph) Split(side []byte, local []int32, rs *RowSorter, a *mem.Arena) (*Graph, *Graph) {
	n := int32(g.NumNodes())
	var cnt, deg [2]int32
	for v := int32(0); v < n; v++ {
		sd := side[v]
		local[v] = cnt[sd]
		cnt[sd]++
		deg[sd] += g.xadj[v+1] - g.xadj[v]
	}
	unit := g.UnitEdgeWeights()
	var xadj, adj [2][]int32
	var ewgt, nwgt [2][]int64
	var agg [2]CSRAggregates
	for sd := range agg {
		xadj[sd], adj[sd], nwgt[sd] = a.Int32(int(cnt[sd]+1)), a.Int32(int(deg[sd])), a.Int64(int(cnt[sd]))
		xadj[sd][0] = 0
		if !unit {
			ewgt[sd] = a.Int64(int(deg[sd]))
		}
	}
	for v := int32(0); v < n; v++ {
		sd, lv := side[v], local[v]
		w := g.nwgt[v]
		nwgt[sd][lv] = w
		agg[sd].TotalNodeWeight += w
		agg[sd].MaxNodeWeight = max(agg[sd].MaxNodeWeight, w)
		lo := xadj[sd][lv]
		next, row, rowW := lo, adj[sd], ewgt[sd]
		ws := g.AdjWeights(v)
		for i, u := range g.Adj(v) {
			if side[u] == sd {
				row[next] = local[u]
				if !unit {
					rowW[next] = ws[i]
				}
				agg[sd].TotalEdgeWeight += ws[i]
				next++
			}
		}
		if unit {
			SortIDs(row[lo:next])
		} else {
			rs.Sort(row[lo:next], rowW[lo:next])
		}
		xadj[sd][lv+1] = next
	}
	var sub [2]*Graph
	for sd := range sub {
		m := xadj[sd][cnt[sd]]
		if !unit {
			ewgt[sd] = ewgt[sd][:m]
		}
		sub[sd] = fromInput(xadj[sd], adj[sd][:m], ewgt[sd], nwgt[sd], agg[sd])
	}
	return sub[0], sub[1]
}

// Release hands g's CSR arrays to a, the arena they were borrowed from
// (Split). g must not be read afterwards.
func (g *Graph) Release(a *mem.Arena) {
	a.PutInt32(g.xadj)
	a.PutInt32(g.adj)
	a.PutInt64(g.ewgt)
	a.PutInt64(g.nwgt)
	*g = Graph{}
}
