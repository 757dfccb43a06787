package gen

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/rng"
)

// PrefAttach generates a preferential-attachment (Barabási–Albert) graph
// with n nodes, each new node attaching d edges to existing nodes chosen
// with probability proportional to their degree. This reproduces the heavy
// power-law degree tail of the paper's coAuthorsDBLP/citationCiteseer social
// instances, which stress partitioners very differently from meshes.
//
//kappa:invariant generator parameters are fixed by the scenario catalog, not user input
func PrefAttach(n, d int, seed uint64) *graph.Graph {
	if d < 1 {
		panic("gen: PrefAttach needs d >= 1")
	}
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	// repeated-node list: each node appears once per incident half-edge, so
	// uniform sampling from it is degree-proportional sampling.
	var pool []int32
	start := d + 1
	if start > n {
		start = n
	}
	// Seed clique over the first min(d+1, n) nodes.
	for i := 0; i < start; i++ {
		for j := i + 1; j < start; j++ {
			b.AddEdge(int32(i), int32(j), 1)
			pool = append(pool, int32(i), int32(j))
		}
	}
	chosen := make([]int32, 0, d)
	for v := start; v < n; v++ {
		// Deduplicate in insertion order: ranging over a set here would make
		// the edge order — and through the pool, every later degree draw —
		// depend on map iteration, so the "same" seed generated a different
		// graph on every process.
		chosen = chosen[:0]
		for len(chosen) < d {
			u := pool[r.Intn(len(pool))]
			dup := false
			for _, c := range chosen {
				if c == u {
					dup = true
					break
				}
			}
			if !dup {
				chosen = append(chosen, u)
			}
		}
		for _, u := range chosen {
			b.AddEdge(int32(v), u, 1)
			pool = append(pool, int32(v), u)
		}
	}
	return b.Build()
}

// RMAT generates a recursive-matrix random graph with 2^scale nodes and
// about edgeFactor·2^scale undirected edges using the standard
// (a,b,c,d) = (0.57, 0.19, 0.19, 0.05) parameters. RMAT graphs have skewed
// degrees and weak community structure, similar to citation networks.
// Duplicate edges and self loops are discarded, so the realized edge count is
// slightly below the requested one. The graph is restricted to its largest
// connected component.
func RMAT(scale, edgeFactor int, seed uint64) *graph.Graph {
	n := 1 << scale
	r := rng.New(seed)
	target := edgeFactor * n
	keys := make([]uint64, 0, target)
	const a, bb, c = 0.57, 0.19, 0.19
	for e := 0; e < target; e++ {
		u, v := 0, 0
		for bit := 0; bit < scale; bit++ {
			p := r.Float64()
			switch {
			case p < a:
			case p < a+bb:
				v |= 1 << bit
			case p < a+bb+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u != v {
			keys = append(keys, uint64(min(u, v))<<32|uint64(uint32(max(u, v))))
		}
	}
	slices.Sort(keys)
	g := fromSortedPairs(n, slices.Compact(keys))
	lc, _ := g.LargestComponent()
	return lc
}

// fromSortedPairs builds the unit graph on n nodes whose edges are the
// distinct keys lo<<32|hi, lo < hi, given ascending. Scattered in that order
// every row comes out sorted: a node's lower neighbours arrive from the keys
// that name it hi, in ascending lo, all before the keys that name it lo, in
// ascending hi.
func fromSortedPairs(n int, keys []uint64) *graph.Graph {
	// pos[v+2] counts row v; after the prefix sum pos[v+1] is its cursor,
	// and once scattered pos[:n+1] is the offset array.
	pos := make([]int32, n+2)
	for _, k := range keys {
		pos[k>>32+2]++
		pos[uint32(k)+2]++
	}
	for v := 0; v < n; v++ {
		pos[v+2] += pos[v+1]
	}
	adj := make([]int32, 2*len(keys))
	for _, k := range keys {
		lo, hi := int32(k>>32), int32(uint32(k))
		adj[pos[lo+1]], adj[pos[hi+1]] = hi, lo
		pos[lo+1]++
		pos[hi+1]++
	}
	nwgt := make([]int64, n)
	for i := range nwgt {
		nwgt[i] = 1
	}
	return graph.FromCSRTrusted(pos[:n+1], adj, nil, nwgt, graph.CSRAggregates{
		TotalNodeWeight: int64(n), TotalEdgeWeight: int64(len(keys)), MaxNodeWeight: min(int64(n), 1),
	})
}

// ErdosRenyi generates a G(n, m) random graph (m distinct uniform edges).
// It is used by tests as an unstructured control input.
func ErdosRenyi(n, m int, seed uint64) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	seen := make(map[uint64]bool)
	for len(seen) < m {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := uint64(u)<<32 | uint64(uint32(v))
		if seen[key] {
			continue
		}
		seen[key] = true
		b.AddEdge(int32(u), int32(v), 1)
	}
	return b.Build()
}
