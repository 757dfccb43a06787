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
// merging parallel edges with a per-worker scatter array. Both passes, and
// the numbering before them, process each node independently, so they
// parallelize over disjoint node ranges with no synchronization beyond their
// barriers — and because every worker handles its nodes in exactly the order
// the serial loop would, the resulting graph is byte-identical for any
// worker count.
package coarsen

import (
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mem"
	"repro/internal/par"
)

// Options tunes ContractWith. The zero value reproduces Contract: one
// worker, no buffer reuse.
type Options struct {
	// Workers is the number of spans the count and fill passes split the
	// coarse nodes into, and the most node ranges the numbering before them
	// splits into (it also keeps to the floor of graph.ParallelRanges);
	// values < 2 run the passes inline. The result is byte-identical for
	// every worker count.
	Workers int
	// Arena supplies the reusable scratch buffers (member lists, scatter
	// arrays); nil falls back to fresh allocations.
	Arena *mem.Arena
	// Crew runs the spans and ranges, no more of them at once than it has
	// members; nil starts goroutines for each pass (par.Spawn).
	Crew *par.Crew
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
	a := opt.Arena
	workers := max(1, min(opt.Workers, n))

	// The mapping persists in the Hierarchy, so it is always a fresh
	// allocation; only true temporaries come from the arena.
	//kappa:allow hotalloc the fine→coarse mapping persists in the Hierarchy
	fine2coarse := make([]int32, n)
	//kappa:allow hotalloc one span per goroutine of the count and fill passes
	spans := make([]span, workers)

	// Every unmatched node and the smaller endpoint of every pair creates a
	// coarse node, numbered in fine order. On the node ranges of
	// graph.ParallelRanges (at most workers), each range counts its creators
	// and the fine degree their pairs bring, and a prefix sum gives it the
	// first id it numbers (at) and the degree before it (deg); then it
	// numbers them (numbering.number). One range runs on the calling
	// goroutine without a closure, so the serial path allocates nothing more.
	ranges := min(workers, graph.ParallelRanges(opt.Crew, 2*g.NumEdges()))
	at, deg := a.Int32(ranges+1), a.Int64(ranges+1)
	at[0], deg[0] = 0, 0
	if ranges == 1 {
		at[1], deg[1] = countCreators(g, m, 0, int32(n))
	} else {
		opt.Crew.Run(ranges, func(_, r int) {
			at[r+1], deg[r+1] = countCreators(g, m, g.RangeStart(r, ranges), g.RangeStart(r+1, ranges))
		})
	}
	for r := range ranges {
		at[r+1] += at[r]
		deg[r+1] += deg[r]
	}
	nc := at[ranges]
	for w := range spans {
		spans[w].hi = nc // a span no degree ends (a level without edges) ends with the level
	}
	nb := numbering{fine2coarse, a.Int32(int(nc)), a.Int32(n), spans, deg[ranges]}
	if ranges == 1 {
		nb.number(g, m, 0, int32(n), 0, 0)
	} else {
		opt.Crew.Run(ranges, func(_, r int) {
			nb.number(g, m, g.RangeStart(r, ranges), g.RangeStart(r+1, ranges), at[r], deg[r])
		})
	}
	a.PutInt32(at)
	a.PutInt64(deg)
	for w := 1; w < workers; w++ {
		spans[w].lo = spans[w-1].hi
	}

	cg := contractMapped(opt.Crew, g, fine2coarse, nb.head, nb.next, spans, a).graph()
	a.PutInt32(nb.head)
	a.PutInt32(nb.next)
	return cg, fine2coarse
}

// countCreators returns how many of the nodes [lo, hi) create a coarse node
// under m — unmatched, or the smaller endpoint of a pair — and the fine
// degree of the nodes they gather.
func countCreators(g *graph.Graph, m matching.Matching, lo, hi int32) (creators int32, degree int64) {
	for v := lo; v < hi; v++ {
		if u := m[v]; u < 0 || u > v {
			creators++
			degree += int64(g.Degree(v))
			if u >= 0 {
				degree += int64(g.Degree(u))
			}
		}
	}
	return creators, degree
}

// numbering is what the numbering pass of ContractWith writes: the
// fine→coarse map, the member lists (head[c] is c's first member, next[v]
// the member after v, -1 the end) and the ends of the spans of the count and
// fill passes, which split the total fine degree of the level evenly.
type numbering struct {
	fine2coarse, head, next []int32
	spans                   []span
	total                   int64
}

// number numbers the creators among the nodes [lo, hi) from coarse id c on,
// maps each and its partner, and threads them onto the member lists in
// ascending order: every node is written by the range of its creator. d is
// the degree the creators before lo gather. Span w ends after the coarse node
// at which the degree summed in coarse order first exceeds (w+1)/len(spans) of
// the total, so the passes split the level by the work they do (equal id
// ranges would let one hub-heavy range serialize the level on social graphs);
// a range sets the ends that fall among its creators.
func (nb numbering) number(g *graph.Graph, m matching.Matching, lo, hi, c int32, d int64) {
	workers := int64(len(nb.spans))
	w := int64(0)
	for w < workers-1 && nb.total*(w+1)/workers < d {
		w++
	}
	for v := lo; v < hi; v++ {
		u := m[v]
		if u >= 0 && u < v {
			continue
		}
		nb.fine2coarse[v], nb.head[c], nb.next[v] = c, v, u
		d += int64(g.Degree(v))
		if u >= 0 {
			nb.fine2coarse[u], nb.next[u] = c, -1
			d += int64(g.Degree(u))
		}
		c++
		for ; w < workers-1 && d > nb.total*(w+1)/workers; w++ {
			nb.spans[w].hi = c
		}
	}
}

// coarseCSR is a coarse graph as contractMapped leaves it: the CSR arrays,
// the weighted degrees, the coordinates and the aggregates, all summed on
// the way.
type coarseCSR struct {
	xadj, adj        []int32
	ewgt, nwgt, wdeg []int64
	x, y, z          []float64 // nil without coordinates, z nil in 2D
	agg              graph.CSRAggregates
}

// graph adopts c's arrays, weighted degrees and coordinates.
func (c coarseCSR) graph() *graph.Graph {
	cg := graph.FromCSRTrusted(c.xadj, c.adj, c.ewgt, c.nwgt, c.agg)
	cg.SetWeightedDegrees(c.wdeg)
	if c.z != nil {
		cg.SetCoords3(c.x, c.y, c.z)
	} else if c.x != nil {
		cg.SetCoords(c.x, c.y)
	}
	return cg
}

// span is the coarse ids [lo, hi) one goroutine runs the count and fill
// passes over, and what it sums on the way: the half-edges of its rows
// (counted, then where they start), its heaviest node and its weighted
// degrees.
type span struct {
	lo, hi, half int32
	maxNW, wdeg  int64
}

// contractMapped is the count and fill passes every contraction runs, each a
// batch of one task per span on run: the coarse graph of g under
// fine2coarse, whose coarse node c has the fine members memberHead[c],
// memberNext[memberHead[c]], … in ascending order up to -1. Node weights are the members' sums, parallel
// coarse edges merge by summing their weights, edges inside a coarse node
// vanish, and each row lists its neighbours in the order its members' rows
// first reach them. Coordinates are the members' means, summed in ascending
// member order: the additions of a scan over the fine nodes, in its order,
// so the same bits.
//
//kappa:hotpath
func contractMapped(run *par.Crew, g *graph.Graph, fine2coarse, memberHead, memberNext []int32, spans []span, a *mem.Arena) coarseCSR {
	nc := spans[len(spans)-1].hi

	// Node weights and the row index persist with the coarse graph.
	//kappa:allow hotalloc node weights persist with the coarse graph
	nwgt := make([]int64, nc)
	//kappa:allow hotalloc the row index persists as the coarse graph's CSR
	xadj := make([]int32, nc+1)

	// needPos: only the fill pass uses the scatter-position array; the count
	// pass skips that borrow.
	runPass := func(needPos bool, pass func(sp *span, stamp, pos []int32)) {
		run.Run(len(spans), func(_, w int) {
			stamp := a.Int32(int(nc))
			clear(stamp) // arena contents are undefined; 0 never matches c+1
			var pos []int32
			if needPos {
				pos = a.Int32(int(nc))
			}
			pass(&spans[w], stamp, pos)
			if needPos {
				a.PutInt32(pos)
			}
			a.PutInt32(stamp)
		})
	}

	// ---- Pass 1: weigh each coarse node and count its distinct neighbours ----
	runPass(false, func(sp *span, stamp, _ []int32) {
		half, maxNW := int32(0), int64(0) // summed here, stored once: spans share cache lines
		for c := sp.lo; c < sp.hi; c++ {
			cnt := int32(0)
			var w int64
			for v := memberHead[c]; v >= 0; v = memberNext[v] {
				w += g.NodeWeight(v)
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
			nwgt[c] = w
			maxNW = max(maxNW, w)
			half += cnt
		}
		sp.half, sp.maxNW = half, maxNW
	})
	half := int32(0)
	var maxNW int64
	for w := range spans {
		sp := &spans[w]
		sp.half, half = half, half+sp.half
		maxNW = max(maxNW, sp.maxNW)
	}

	// Exactly-sized coarse CSR (persists) plus the weighted degrees the fill
	// pass computes for free while merging edge weights.
	//kappa:allow hotalloc exactly-sized CSR arrays persist as the coarse graph
	adj := make([]int32, half)
	//kappa:allow hotalloc exactly-sized CSR arrays persist as the coarse graph
	ewgt := make([]int64, half)
	//kappa:allow hotalloc the weighted-degree cache persists with the coarse graph
	wdeg := make([]int64, nc)
	fx, fy, fz := g.Coords3()
	var cx, cy, cz []float64
	if fx != nil && nc > 0 {
		//kappa:allow hotalloc coordinates persist with the coarse graph
		cx, cy = make([]float64, nc), make([]float64, nc)
		if fz != nil {
			//kappa:allow hotalloc coordinates persist with the coarse graph
			cz = make([]float64, nc)
		}
	}

	// ---- Pass 2: fill each coarse node's segment in first-encounter order ----
	runPass(true, func(sp *span, stamp, pos []int32) {
		next, wsum := sp.half, int64(0)
		for c := sp.lo; c < sp.hi; c++ {
			first := next
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
			xadj[c+1] = next
			var s int64
			for _, w := range ewgt[first:next] {
				s += w
			}
			wdeg[c] = s
			wsum += s
			if cx != nil {
				var x, y, z, k float64
				for v := memberHead[c]; v >= 0; v = memberNext[v] {
					x += fx[v]
					y += fy[v]
					if cz != nil {
						z += fz[v]
					}
					k++
				}
				cx[c], cy[c] = x/k, y/k
				if cz != nil {
					cz[c] = z / k
				}
			}
		}
		sp.wdeg = wsum
	})

	var totalEW int64
	for _, sp := range spans {
		totalEW += sp.wdeg
	}
	return coarseCSR{xadj: xadj, adj: adj, ewgt: ewgt, nwgt: nwgt, wdeg: wdeg, x: cx, y: cy, z: cz, agg: graph.CSRAggregates{
		TotalNodeWeight: g.TotalNodeWeight(), TotalEdgeWeight: totalEW / 2, MaxNodeWeight: maxNW}}
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
