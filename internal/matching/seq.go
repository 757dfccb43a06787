package matching

import (
	"repro/internal/dsu"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/rating"
	"repro/internal/rng"
)

// shemInto implements Sorted Heavy Edge Matching writing into an existing
// matching: nodes are scanned in order of increasing degree (random within
// equal degrees); each unmatched node is matched to the unmatched neighbor
// with the highest edge rating. If nodes is non-nil, matching is restricted
// to that node subset; the eligible partners are the nodes u with block[u]
// == p. rated, if non-nil, receives both ends' pair rating (see localPhase).
// Scratch comes from a (nil = allocate).
func shemInto(g *graph.Graph, rt *rating.Rater, r *rng.RNG, nodes, block []int32, p int32, m Matching, rated []float64, maxPair int64, a *mem.Arena) {
	var count int
	if nodes == nil {
		count = g.NumNodes()
	} else {
		count = len(nodes)
	}
	node := func(i int32) int32 {
		if nodes == nil {
			return i
		}
		return nodes[i]
	}
	// Scan order: increasing degree, a random 32-bit tie per node within
	// equal degrees, input order where those collide too.
	ties := a.Uint32(count)
	order, tmp := a.Uint64(count), a.Uint64(count)
	for i := range ties {
		ties[i] = uint32(r.Uint64())
	}
	mem.SortKeyedWords(order, tmp, 2, func(i int32, word int) uint32 {
		if word == 0 {
			return uint32(g.Degree(node(i)))
		}
		return ties[i]
	}, nil)
	a.PutUint64(tmp)
	a.PutUint32(ties)
	for _, o := range order {
		v := node(mem.KeyedIdx(o))
		if m[v] >= 0 {
			continue
		}
		adj := g.Adj(v)
		ws := g.AdjWeights(v)
		best := int32(-1)
		bestR := 0.0
		for i, u := range adj {
			// The block check must precede the m[u] read: in the parallel
			// scheme, matching entries of foreign blocks are concurrently
			// written by their owners.
			if block[u] != p {
				continue
			}
			if m[u] >= 0 {
				continue
			}
			if maxPair > 0 && g.NodeWeight(v)+g.NodeWeight(u) > maxPair {
				continue
			}
			rr := rt.Rate(v, u, ws[i])
			if best < 0 || rr > bestR {
				best, bestR = u, rr
			}
		}
		if best >= 0 {
			m[v] = best
			m[best] = v
			if rated != nil {
				rated[v], rated[best] = bestR, bestR
			}
		}
	}
	a.PutUint64(order)
}

// greedyEdges runs the sorted greedy half-approximation over the given edge
// set, writing into m: edges are scanned by descending rating and taken
// whenever both endpoints are free. rated, if non-nil, receives both ends'
// pair rating (see localPhase). Sort scratch comes from a (nil = allocate).
func greedyEdges(g *graph.Graph, edges []Edge, m Matching, rated []float64, maxPair int64, a *mem.Arena) {
	order := edgeOrder(edges, a)
	for _, o := range order {
		e := &edges[mem.KeyedIdx(o)]
		if maxPair > 0 && g.NodeWeight(e.U)+g.NodeWeight(e.V) > maxPair {
			continue
		}
		if m[e.U] < 0 && m[e.V] < 0 {
			m[e.U] = e.V
			m[e.V] = e.U
			if rated != nil {
				rated[e.U], rated[e.V] = e.R, e.R
			}
		}
	}
	a.PutUint64(order)
}

// pathAdj is the adjacency among GPA's selected edges: at most two per node,
// in selection order — slots 2i and 2i+1 of to (the other end) and r (the
// edge's rating) for the node at position i of the matched node list
// (pos[v]), so a block's adjacency costs the block; nil pos means the whole
// graph, positions by node id. Both arrays come from the caller's arena, as
// every other GPA table does: a per-PE arena makes what a PE's GPA borrows
// independent of when the other PEs run theirs.
type pathAdj struct {
	to, pos []int32
	r       []float64
}

// at returns the index of v's first slot.
func (p pathAdj) at(v int32) int {
	if p.pos != nil {
		v = p.pos[v]
	}
	return 2 * int(v)
}

// Flags of a GPA piece, kept at its DSU root, and the walk's visited mark on
// a node's selected-edge count.
const (
	pieceOdd    byte = 1 // the piece has an odd number of edges
	pieceClosed byte = 2 // the piece is closed into a cycle
	walked      byte = 0x80
)

// gpaEdges runs the Global Path Algorithm over the given edge set, writing
// into m. GPA scans edges by descending rating like Greedy but first grows a
// collection of paths and even cycles; it then computes an optimal matching
// on each path/cycle by dynamic programming. Scratch comes from a (nil =
// allocate).
//
// nodes lists, ascending, every node the edges touch (nil = all nodes of g):
// the per-node state is set up and walked on those nodes only, so matching
// one block costs the block, not the graph. Nodes outside it hold no selected
// edge, so the walk order — and the matching — is that of a scan over all
// nodes. rated, if non-nil, receives for both ends of every pair GPA matches
// the pair's edge rating R: every rating function is symmetric, so that is
// rt.Rate(v, m[v], ω) bit for bit. Entries of the nodes left unmatched are
// not written.
func gpaEdges(g *graph.Graph, nodes []int32, edges []Edge, m Matching, rated []float64, maxPair int64, a *mem.Arena) {
	n := g.NumNodes()
	order := edgeOrder(edges, a)
	// Per node: the selected edges at it (deg) and, at DSU roots, the
	// piece's flags; the DSU's parent and size arrays. Per position in
	// nodes: the path adjacency, after the position array when nodes is a
	// block.
	flags, dsuArrays := a.Bytes(2*n), a.Int32(2*n)
	deg, piece := flags[:n:n], flags[n:]
	d := dsu.NewIn(dsuArrays[:n:n], dsuArrays[n:], nodes)
	count, posLen := n, 0
	if nodes != nil {
		count, posLen = len(nodes), n
	}
	ints := a.Int32(posLen + 2*count)
	adj := pathAdj{to: ints[posLen:], r: a.Float64(2 * count)}
	if nodes == nil {
		clear(flags)
	} else {
		adj.pos = ints[:n:n]
		for i, v := range nodes {
			deg[v], piece[v], adj.pos[v] = 0, 0, int32(i)
		}
	}
	sel := func(e *Edge) {
		iu, iv := adj.at(e.U)+int(deg[e.U]), adj.at(e.V)+int(deg[e.V])
		adj.to[iu], adj.r[iu] = e.V, e.R
		adj.to[iv], adj.r[iv] = e.U, e.R
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
	matchPathsAndCycles(nodes, n, adj, deg, m, rated)
	a.PutFloat64(adj.r)
	a.PutInt32(ints)
	a.PutUint64(order)
	a.PutInt32(dsuArrays)
	a.PutBytes(flags)
}

// pathDP holds the grow-only dynamic-programming buffers of one
// matchPathsAndCycles invocation, so the per-path/per-cycle solves allocate
// nothing.
type pathDP struct {
	dpTake, dpSkip []float64
	take, takeAlt  []bool
}

func (s *pathDP) grow(k int) {
	if cap(s.dpTake) < k {
		s.dpTake = make([]float64, k)
		s.dpSkip = make([]float64, k)
		s.take = make([]bool, k)
		s.takeAlt = make([]bool, k)
	}
}

// matchPathsAndCycles decomposes the degree-≤2 selected edges — deg[v] slots
// from adj.at(v) for v in nodes, nil meaning all n nodes — into paths and
// cycles, solves each optimally by dynamic programming, and records the chosen
// edges in m and their ratings in rated (if non-nil). It marks deg's entries
// walked as it goes.
func matchPathsAndCycles(nodes []int32, n int, adj pathAdj, deg []byte, m Matching, rated []float64) {
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
			next, at := -1, adj.at(v)
			for i := at; i < at+int(c); i++ {
				if adj.to[i] != prev {
					next = i
					break
				}
			}
			if next < 0 {
				return false // path ended
			}
			to := adj.to[next]
			pathU = append(pathU, v)
			pathV = append(pathV, to)
			pathR = append(pathR, adj.r[next])
			if to == start {
				return true // cycle closed
			}
			if deg[to]&walked != 0 {
				return false
			}
			prev, v = v, to
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

// maxPathMatching returns, for a path whose consecutive edges have ratings
// r, the optimal take/skip choice maximizing the total rating of pairwise
// non-adjacent edges. The result aliases dp.take and is valid until the next
// solve on the same pathDP.
func maxPathMatching(r []float64, dp *pathDP) []bool {
	k := len(r)
	dp.grow(k)
	take := dp.take[:k]
	clear(take)
	if k == 0 {
		return take
	}
	maxPathMatchingInto(r, take, dp.dpTake[:k], dp.dpSkip[:k])
	return take
}

// maxPathMatchingInto solves the path DP into the caller's buffers; take
// must be pre-cleared.
func maxPathMatchingInto(r []float64, take []bool, dpTake, dpSkip []float64) {
	k := len(r)
	if k == 0 {
		return
	}
	// dpTake[i] = best over first i+1 edges with edge i taken; dpSkip[i] =
	// best with edge i skipped.
	dpTake[0], dpSkip[0] = r[0], 0
	for i := 1; i < k; i++ {
		dpTake[i] = dpSkip[i-1] + r[i]
		dpSkip[i] = dpTake[i-1]
		if dpSkip[i-1] > dpSkip[i] {
			dpSkip[i] = dpSkip[i-1]
		}
	}
	// Backtrack.
	taking := dpTake[k-1] >= dpSkip[k-1]
	for i := k - 1; i >= 0; i-- {
		if taking {
			take[i] = true
			taking = false // next (previous) edge must be skipped
		} else {
			if i > 0 {
				taking = dpTake[i-1] >= dpSkip[i-1]
			}
		}
	}
}

// maxCycleMatching solves the cycle case: either the last edge is excluded
// (path over edges 0..k-2) or it is taken (forcing its neighbors, edges 0
// and k-2, out; path over 1..k-3). The result aliases dp.take.
func maxCycleMatching(r []float64, dp *pathDP) []bool {
	k := len(r)
	if k < 3 {
		// Degenerate; treat as path.
		return maxPathMatching(r, dp)
	}
	dp.grow(k)
	sum := func(take []bool, rs []float64) float64 {
		s := 0.0
		for i, t := range take {
			if t {
				s += rs[i]
			}
		}
		return s
	}
	// Variant a in dp.takeAlt: last edge excluded.
	a := dp.takeAlt[:k-1]
	clear(a)
	maxPathMatchingInto(r[:k-1], a, dp.dpTake[:k-1], dp.dpSkip[:k-1])
	aVal := sum(a, r[:k-1])
	// Variant b in dp.take: last edge taken, inner path over 1..k-3.
	take := dp.take[:k]
	clear(take)
	bInner := take[1 : k-2]
	maxPathMatchingInto(r[1:k-2], bInner, dp.dpTake[:k-3], dp.dpSkip[:k-3])
	bVal := r[k-1] + sum(bInner, r[1:k-2])
	if aVal >= bVal {
		clear(take)
		copy(take, a)
		return take
	}
	take[k-1] = true
	return take
}
