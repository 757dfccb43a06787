// Package coarsen implements the contraction phase of the multilevel scheme
// (§2, §3): contracting the edges of a matching produces the next-coarser
// graph, and a Hierarchy records the sequence of graphs and node mappings so
// that partitions can be projected back during uncoarsening.
//
// Contract performs the contraction on the shared global graph;
// ContractDistributed numbers the coarse nodes PE-locally — every PE numbers
// those of the owned part of its subgraph, agreeing with the others in two
// ghost-exchange supersteps — and contracts the global graph by the
// resulting map, producing a coarse graph with exactly the same coarse node
// groups and edge weights as a shared-memory contraction of the same
// matching.
//
// The shared contraction is the two-pass scheme of §5.2's static-array
// philosophy: a count pass sizes the coarse CSR exactly (prefix sums become
// xadj), then a fill pass writes every coarse half-edge into its final slot,
// merging parallel edges with a per-worker scatter array. Both passes
// process each coarse node independently, so they parallelize over disjoint
// coarse-id ranges with no synchronization beyond two barriers — and because
// every worker handles its coarse nodes in exactly the order the serial loop
// would, the resulting graph is byte-identical for any worker count.
package coarsen

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mem"
)

// Options tunes ContractWith. The zero value reproduces Contract: one
// worker, no buffer reuse.
type Options struct {
	// Workers is the number of goroutines for the count and fill passes;
	// values < 2 run the passes inline. The result is byte-identical for
	// every worker count.
	Workers int
	// Arena supplies the reusable scratch buffers (member lists, scatter
	// arrays); nil falls back to fresh allocations.
	Arena *mem.Arena
}

// Contract contracts every matched edge of m in g. It returns the coarse
// graph and the mapping fine node → coarse node. Contracting {u,v} forms a
// node x with c(x) = c(u)+c(v); parallel coarse edges are merged by summing
// their weights (§2). Coordinates, when present, are carried over as the
// weighted midpoint of the contracted pair.
func Contract(g *graph.Graph, m matching.Matching) (*graph.Graph, []int32) {
	return ContractWith(g, m, Options{})
}

// ContractWith is Contract with explicit worker count and scratch arena; see
// Options.
//
//kappa:hotpath
func ContractWith(g *graph.Graph, m matching.Matching, opt Options) (*graph.Graph, []int32) {
	n := g.NumNodes()

	// The mapping persists in the Hierarchy, so it is always a fresh
	// allocation; only true temporaries come from the arena.
	//kappa:allow hotalloc the fine→coarse mapping persists in the Hierarchy
	fine2coarse := make([]int32, n)
	nc := int32(0)
	for v := int32(0); v < int32(n); v++ {
		if u := m[v]; u >= 0 && u < v {
			continue // the smaller endpoint creates the coarse node
		}
		fine2coarse[v] = nc
		nc++
	}
	for v := int32(0); v < int32(n); v++ {
		if u := m[v]; u >= 0 && u < v {
			fine2coarse[v] = fine2coarse[u]
		}
	}

	cg := contractMapped(g, fine2coarse, nc, opt).graph()
	if g.HasCoords() {
		contractCoords(g, fine2coarse, nc, cg)
	}
	return cg, fine2coarse
}

// coarseCSR is a coarse graph as contractMapped leaves it: the CSR arrays,
// the weighted degrees and the aggregates, all summed on the way.
type coarseCSR struct {
	xadj, adj        []int32
	ewgt, nwgt, wdeg []int64
	agg              graph.CSRAggregates
}

// graph adopts c's arrays and weighted degrees.
func (c coarseCSR) graph() *graph.Graph {
	cg := graph.FromCSRTrusted(c.xadj, c.adj, c.ewgt, c.nwgt, c.agg)
	cg.SetWeightedDegrees(c.wdeg)
	return cg
}

// contractMapped is the count and fill passes every contraction runs: the
// coarse graph of g under fine2coarse, onto nc coarse nodes that each have a
// member. Node weights are the members' sums, parallel coarse edges merge by
// summing their weights, edges inside a coarse node vanish, and each row
// lists its neighbours in the order its members' rows first reach them.
//
//kappa:hotpath
func contractMapped(g *graph.Graph, fine2coarse []int32, nc int32, opt Options) coarseCSR {
	n := g.NumNodes()
	a := opt.Arena

	// Coarse node weights (persist with the coarse graph).
	//kappa:allow hotalloc node weights persist with the coarse graph
	nwgt := make([]int64, nc)
	for v := int32(0); v < int32(n); v++ {
		nwgt[fine2coarse[v]] += g.NodeWeight(v)
	}
	var maxNW int64
	for _, w := range nwgt {
		maxNW = max(maxNW, w)
	}

	// members[c] lists the fine nodes of coarse node c, in ascending fine
	// order (the order the fill pass must follow).
	memberHead := a.Int32(int(nc))
	memberNext := a.Int32(n)
	for c := range memberHead {
		memberHead[c] = -1
	}
	for v := int32(n) - 1; v >= 0; v-- {
		c := fine2coarse[v]
		memberNext[v] = memberHead[c]
		memberHead[c] = v
	}

	workers := max(1, min(opt.Workers, int(nc)))

	// Split [0, nc) into ranges balanced by the fine degree sum each coarse
	// node drags through the passes (equal id ranges would let one hub-heavy
	// range serialize the level on social graphs).
	bounds := coarseRanges(g, memberHead, memberNext, nc, workers)

	//kappa:allow hotalloc the row index persists as the coarse graph's CSR
	xadj := make([]int32, nc+1) // persists

	// ---- Pass 1: count distinct coarse neighbors per coarse node ----
	// needPos: only the fill pass uses the scatter-position array; the
	// count pass skips that borrow.
	runPass := func(needPos bool, pass func(lo, hi int32, stamp, pos []int32)) {
		worker := func(lo, hi int32) {
			stamp := a.Int32(int(nc))
			var pos []int32
			if needPos {
				pos = a.Int32(int(nc))
			}
			pass(lo, hi, stamp, pos)
			if needPos {
				a.PutInt32(pos)
			}
			a.PutInt32(stamp)
		}
		if workers == 1 {
			worker(0, nc)
			return
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(lo, hi int32) {
				defer wg.Done()
				worker(lo, hi)
			}(bounds[w], bounds[w+1])
		}
		wg.Wait()
	}

	runPass(false, func(lo, hi int32, stamp, _ []int32) {
		clear(stamp) // arena contents are undefined; 0 never matches c+1
		for c := lo; c < hi; c++ {
			cnt := int32(0)
			for v := memberHead[c]; v >= 0; v = memberNext[v] {
				for _, u := range g.Adj(v) {
					cu := fine2coarse[u]
					if cu == c {
						continue // contracted or internal edge vanishes
					}
					if stamp[cu] != c+1 {
						stamp[cu] = c + 1
						cnt++
					}
				}
			}
			xadj[c+1] = cnt
		}
	})
	for c := int32(0); c < nc; c++ {
		xadj[c+1] += xadj[c]
	}

	// Exactly-sized coarse CSR (persists) plus the weighted degrees the fill
	// pass computes for free while merging edge weights.
	//kappa:allow hotalloc exactly-sized CSR arrays persist as the coarse graph
	adj := make([]int32, xadj[nc])
	//kappa:allow hotalloc exactly-sized CSR arrays persist as the coarse graph
	ewgt := make([]int64, xadj[nc])
	//kappa:allow hotalloc the weighted-degree cache persists with the coarse graph
	wdeg := make([]int64, nc)

	// ---- Pass 2: fill each coarse node's segment in first-encounter order ----
	runPass(true, func(lo, hi int32, stamp, pos []int32) {
		clear(stamp)
		for c := lo; c < hi; c++ {
			next := xadj[c]
			for v := memberHead[c]; v >= 0; v = memberNext[v] {
				fadj := g.Adj(v)
				fw := g.AdjWeights(v)
				for i, u := range fadj {
					cu := fine2coarse[u]
					if cu == c {
						continue
					}
					if stamp[cu] == c+1 {
						ewgt[pos[cu]] += fw[i]
					} else {
						stamp[cu] = c + 1
						pos[cu] = next
						adj[next] = cu
						ewgt[next] = fw[i]
						next++
					}
				}
			}
			var s int64
			for _, w := range ewgt[xadj[c]:next] {
				s += w
			}
			wdeg[c] = s
		}
	})

	a.PutInt32(memberHead)
	a.PutInt32(memberNext)

	var totalEW int64
	for _, s := range wdeg {
		totalEW += s
	}
	return coarseCSR{xadj: xadj, adj: adj, ewgt: ewgt, nwgt: nwgt, wdeg: wdeg, agg: graph.CSRAggregates{
		TotalNodeWeight: g.TotalNodeWeight(), TotalEdgeWeight: totalEW / 2, MaxNodeWeight: maxNW}}
}

// coarseRanges returns workers+1 boundaries over [0, nc], balancing the
// summed fine degrees of each range's coarse members.
func coarseRanges(g *graph.Graph, memberHead, memberNext []int32, nc int32, workers int) []int32 {
	bounds := make([]int32, workers+1)
	bounds[workers] = nc
	if workers == 1 {
		return bounds
	}
	totalDeg := 2 * int64(g.NumEdges()) // Σ_v deg(v) in CSR
	var acc int64
	next := 1
	for c := int32(0); c < nc && next < workers; c++ {
		for v := memberHead[c]; v >= 0; v = memberNext[v] {
			acc += int64(g.Degree(v))
		}
		if acc >= totalDeg*int64(next)/int64(workers) {
			bounds[next] = c + 1
			next++
		}
	}
	for ; next < workers; next++ {
		bounds[next] = nc
	}
	return bounds
}

// contractCoords carries coordinates to the coarse graph as per-group means,
// accumulating in ascending fine order per coarse node — the same additions
// in the same order as a serial scan over fine nodes.
func contractCoords(g *graph.Graph, fine2coarse []int32, nc int32, cg *graph.Graph) {
	fx, fy, fz := g.Coords3()
	cx := make([]float64, nc)
	cy := make([]float64, nc)
	var cz []float64
	if fz != nil {
		cz = make([]float64, nc)
	}
	cnt := make([]float64, nc)
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		c := fine2coarse[v]
		cx[c] += fx[v]
		cy[c] += fy[v]
		if fz != nil {
			cz[c] += fz[v]
		}
		cnt[c]++
	}
	for c := int32(0); c < nc; c++ {
		cx[c] /= cnt[c]
		cy[c] /= cnt[c]
		if fz != nil {
			cz[c] /= cnt[c]
		}
	}
	if fz != nil {
		cg.SetCoords3(cx, cy, cz)
	} else {
		cg.SetCoords(cx, cy)
	}
}

// Level is one step of the hierarchy: Fine is the graph before contraction
// and Map sends each node of Fine to its node in the next-coarser graph.
type Level struct {
	Fine *graph.Graph
	Map  []int32
}

// Hierarchy is the stack of contractions performed during coarsening.
// Levels[0].Fine is the input graph; Coarsest is the final graph handed to
// initial partitioning.
type Hierarchy struct {
	Levels   []Level
	Coarsest *graph.Graph
}

// NewHierarchy starts a hierarchy at g.
func NewHierarchy(g *graph.Graph) *Hierarchy {
	return &Hierarchy{Coarsest: g}
}

// Push records a contraction of the current coarsest graph.
func (h *Hierarchy) Push(coarse *graph.Graph, fine2coarse []int32) {
	h.Levels = append(h.Levels, Level{Fine: h.Coarsest, Map: fine2coarse})
	h.Coarsest = coarse
}

// Depth returns the number of contractions recorded.
func (h *Hierarchy) Depth() int { return len(h.Levels) }

// Project lifts a partition of the graph at level li+1 (coarse side of
// Levels[li]) to the fine side: fine node v gets the block of its coarse
// image. li == Depth()-1 corresponds to lifting from the Coarsest graph.
func (h *Hierarchy) Project(li int, coarsePart []int32) []int32 {
	fine := make([]int32, h.Levels[li].Fine.NumNodes())
	h.ProjectInto(li, coarsePart, fine)
	return fine
}

// ProjectInto is Project writing into a caller-provided slice of length
// Levels[li].Fine.NumNodes() — the allocation-free variant the refinement
// phase uses with ping-ponged arena buffers.
//
//kappa:invariant the pipeline sizes the ping-pong buffers from the hierarchy itself
//kappa:hotpath
func (h *Hierarchy) ProjectInto(li int, coarsePart, fine []int32) {
	lv := h.Levels[li]
	if len(fine) != lv.Fine.NumNodes() {
		panic("coarsen: ProjectInto destination has wrong length")
	}
	for v := range fine {
		fine[v] = coarsePart[lv.Map[v]]
	}
}
