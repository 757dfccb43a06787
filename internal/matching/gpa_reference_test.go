package matching

import (
	"math"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/dsu"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/rating"
	"repro/internal/rng"
)

// pieceClosed flags, in referenceGPAEdges, a piece closed into a cycle.
const pieceClosed byte = 2

// referenceGPAEdges is gpaEdges as it was before its path adjacency was
// indexed by position in nodes: one [2]halfEdge row per node of g, whatever
// the size of the matched set. TestGPAMatchesReference holds gpaEdges to it.
func referenceGPAEdges(g *graph.Graph, nodes []int32, edges []Edge, m Matching, rated []float64, maxPair int64, a *mem.Arena) {
	n := g.NumNodes()
	order := edgeOrder(edges, a)
	deg := a.Bytes(n)   // selected edges at a node
	piece := a.Bytes(n) // pieceOdd and pieceClosed, at DSU roots
	dsuParent := a.Int32(n)
	dsuSize := a.Int32(n)
	d := dsu.NewIn(dsuParent, dsuSize, nodes)
	if nodes == nil {
		clear(deg)
		clear(piece)
	} else {
		for _, v := range nodes {
			deg[v], piece[v] = 0, 0
		}
	}
	// Adjacency among selected edges: at most two incident edges per node,
	// in selection order.
	adj := make([][2]halfEdge, n)
	sel := func(e *Edge) {
		adj[e.U][deg[e.U]] = halfEdge{e.V, e.R}
		adj[e.V][deg[e.V]] = halfEdge{e.U, e.R}
		deg[e.U]++
		deg[e.V]++
	}
	for _, o := range order {
		e := &edges[mem.KeyedIdx(o)]
		if deg[e.U] >= 2 || deg[e.V] >= 2 {
			continue
		}
		// The path/cycle DP may pick any selected edge, so the pair bound
		// must hold at selection time already.
		if maxPair > 0 && g.NodeWeight(e.U)+g.NodeWeight(e.V) > maxPair {
			continue
		}
		ru, rv := d.Find(e.U), d.Find(e.V)
		if piece[ru]&pieceClosed != 0 || piece[rv]&pieceClosed != 0 {
			continue
		}
		if ru == rv {
			// Both endpoints of one path: closing it creates a cycle with
			// edgeCount+1 edges, which must be even.
			if piece[ru]&pieceOdd == 0 {
				continue
			}
			piece[ru] |= pieceClosed
			sel(e)
			continue
		}
		// The merged path has cu+cv+1 edges, which is odd iff cu and cv
		// have equal parity; neither piece is closed.
		merged := piece[ru] ^ piece[rv] ^ pieceOdd
		d.Union(e.U, e.V)
		piece[d.Find(e.U)] = merged
		sel(e)
	}
	referenceMatchPathsAndCycles(nodes, n, adj, deg, m, rated)
	a.PutUint64(order)
	a.PutInt32(dsuSize)
	a.PutInt32(dsuParent)
	a.PutBytes(piece)
	a.PutBytes(deg)
}

// halfEdge is one direction of a selected edge in referenceGPAEdges.
type halfEdge struct {
	to int32
	r  float64
}

// referenceMatchPathsAndCycles is matchPathsAndCycles over the node-indexed
// adjacency of referenceGPAEdges.
func referenceMatchPathsAndCycles(nodes []int32, n int, adj [][2]halfEdge, deg []byte, m Matching, rated []float64) {
	var pathU, pathV []int32
	var pathR []float64
	var dp pathDP

	walk := func(start int32) bool /*isCycle*/ {
		pathU, pathV, pathR = pathU[:0], pathV[:0], pathR[:0]
		prev := int32(-1)
		v := start
		for {
			c := deg[v]
			deg[v] = c | walked
			var next halfEdge
			found := false
			for i := byte(0); i < c; i++ {
				if adj[v][i].to != prev {
					next = adj[v][i]
					found = true
					break
				}
			}
			if !found {
				return false // path ended
			}
			pathU = append(pathU, v)
			pathV = append(pathV, next.to)
			pathR = append(pathR, next.r)
			if next.to == start {
				return true // cycle closed
			}
			if deg[next.to]&walked != 0 {
				return false
			}
			prev, v = v, next.to
		}
	}

	apply := func(take []bool) {
		for i, t := range take {
			if t {
				m[pathU[i]] = pathV[i]
				m[pathV[i]] = pathU[i]
				if rated != nil {
					rated[pathU[i]], rated[pathV[i]] = pathR[i], pathR[i]
				}
			}
		}
	}

	// scan walks, in ascending node order, from every unwalked node with
	// ends selected edges (a walked node's entry carries the mark, so it
	// never equals ends).
	count := n
	if nodes != nil {
		count = len(nodes)
	}
	scan := func(ends byte, solve func([]float64, *pathDP) []bool) {
		for i := 0; i < count; i++ {
			v := int32(i)
			if nodes != nil {
				v = nodes[i]
			}
			if deg[v] == ends && (walk(v) || ends == 1) {
				apply(solve(pathR, &dp))
			}
		}
	}
	// Paths first (endpoints have degree 1); the nodes still unwalked with
	// two edges then lie on cycles. A walk that started mid-path would miss
	// one side; starting only at degree-1 nodes (paths) and unwalked
	// degree-2 nodes (cycles) covers everything because paths are exhausted
	// before cycles.
	scan(1, maxPathMatching)
	scan(2, maxCycleMatching)
}

// contractForTest contracts the pairs of m the plain way, through a Builder
// that sums node weights and merges parallel edges: a weighted level like
// the ones contraction produces.
func contractForTest(g *graph.Graph, m Matching) *graph.Graph {
	coarse := make([]int32, g.NumNodes())
	nc := int32(0)
	for v := range int32(g.NumNodes()) {
		if u := m[v]; u < 0 || u > v {
			coarse[v] = nc
			if u >= 0 {
				coarse[u] = nc
			}
			nc++
		}
	}
	b := graph.NewBuilder(int(nc))
	nw := make([]int64, nc)
	for v := range int32(g.NumNodes()) {
		nw[coarse[v]] += g.NodeWeight(v)
		ws := g.AdjWeights(v)
		for i, u := range g.Adj(v) {
			if u > v && coarse[u] != coarse[v] {
				b.AddEdge(coarse[v], coarse[u], ws[i])
			}
		}
	}
	for c, w := range nw {
		b.SetNodeWeight(int32(c), w)
	}
	return b.Build()
}

// TestGPAMatchesReference runs gpaEdges and referenceGPAEdges on the same
// blocks — the whole graph, RCB or index-range blocks, and random blocks
// whose first nodes each form a block of one — of an rgg, an rmat and a
// contracted (weighted) level of the rgg, with and without a pair bound. The
// block-sized version runs on stale scratch; the matchings and the carried
// ratings must be equal bit for bit.
func TestGPAMatchesReference(t *testing.T) {
	rgg := gen.RGG(11, 3)
	rt := rating.NewRater(rating.ExpansionStar2, rgg)
	level := contractForTest(rgg, ComputeScratch(rgg, rt, GPA, rng.New(5), 0, nil))
	graphs := []struct {
		name string
		g    *graph.Graph
	}{{"rgg11", rgg}, {"rmat10", gen.RMAT(10, 8, 2)}, {"rgg11-level1", level}}
	for _, tc := range graphs {
		g := tc.g
		n := g.NumNodes()
		for ri, rf := range []rating.Func{rating.ExpansionStar2, rating.Weight} {
			rt := rating.NewRater(rf, g)
			r := rng.New(uint64(40 + ri))
			random := make([]int32, n)
			for v := range random {
				random[v] = int32(10 + r.Intn(5))
				if v < 10 {
					random[v] = int32(v) // ten blocks of one node
				}
			}
			for _, bm := range []struct {
				name   string
				block  []int32
				blocks int
			}{
				{"whole", nil, 1},
				{"assign", dist.Assign(g, dist.StrategyAuto, 8), 8},
				{"random", random, 15},
			} {
				for _, maxPair := range []int64{0, 3 * g.TotalNodeWeight() / int64(n)} {
					want, got := NewEmpty(n), NewEmpty(n)
					wantR, gotR := make([]float64, n), make([]float64, n)
					arena := staleArena(n)
					for p := range int32(bm.blocks) {
						var nodes []int32
						var edges []Edge
						for v := range int32(n) {
							if bm.block != nil && bm.block[v] != p {
								continue
							}
							nodes = append(nodes, v)
							for i, u := range g.Adj(v) {
								if u > v && (bm.block == nil || bm.block[u] == p) {
									edges = append(edges, Edge{v, u, rt.Rate(v, u, g.AdjWeights(v)[i]), uint32(r.Uint64())})
								}
							}
						}
						if bm.block == nil {
							nodes = nil
						}
						referenceGPAEdges(g, nodes, slices.Clone(edges), want, wantR, maxPair, nil)
						gpaEdges(g, nodes, edges, got, gotR, maxPair, arena)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s %v %s maxPair %d: matchings differ", tc.name, rf, bm.name, maxPair)
					}
					for v := range wantR {
						if math.Float64bits(gotR[v]) != math.Float64bits(wantR[v]) {
							t.Fatalf("%s %v %s maxPair %d: node %d carries rating %v, reference %v", tc.name, rf, bm.name, maxPair, v, gotR[v], wantR[v])
						}
					}
					if want.Size() == 0 {
						t.Fatalf("%s %v %s: nothing matched", tc.name, rf, bm.name)
					}
				}
			}
		}
	}
}
