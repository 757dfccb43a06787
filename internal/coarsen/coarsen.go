// Package coarsen implements the contraction phase of the multilevel scheme
// (§2, §3): contracting the edges of a matching produces the next-coarser
// graph, and a Hierarchy records the sequence of graphs and node mappings so
// that partitions can be projected back during uncoarsening.
//
// Every contraction numbers the coarse nodes by one rule: block-major over
// the level's node distribution (§3.3), so that each PE's coarse nodes are
// one id range, in PE order, and by ascending creator id within a block. The
// creator of a coarse node is its smaller fine member, and the node belongs
// to the creator's block. ContractWith contracts the shared global graph,
// given the distribution (Options.Blocks; without one, one block: fine
// order). A distributed level numbers the coarse nodes PE-locally instead —
// with ContractSubgraph every PE numbers those of the owned part of its
// subgraph, agreeing with the others in two exchange supersteps — and
// StitchChecked contracts the global graph by the resulting map. For the
// same matching and distribution both give the same map, and the same graph
// up to the order within a row, which the stitch sorts.
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
	// Blocks assigns every fine node to one of PEs blocks, the level's
	// node-to-PE distribution (§3.3); coarse ids follow it by the package's
	// numbering rule, as ContractSubgraph's PEs number theirs. nil is one
	// block: coarse ids in fine order.
	Blocks []int32
	PEs    int
}

// Contract contracts every matched edge of m in g. It returns the coarse
// graph and the mapping fine node → coarse node. Contracting {u,v} forms a
// node x with c(x) = c(u)+c(v); parallel coarse edges are merged by summing
// their weights (§2). Coordinates, when present, are carried over as the
// weighted midpoint of the contracted pair.
func Contract(g *graph.Graph, m matching.Matching) (*graph.Graph, []int32) {
	return ContractWith(g, m, Options{})
}

// ContractWith is Contract with explicit worker count, scratch arena and
// node distribution; see Options.
//
//kappa:hotpath
func ContractWith(g *graph.Graph, m matching.Matching, opt Options) (*graph.Graph, []int32) {
	n := g.NumNodes()
	a := opt.Arena
	workers := max(1, min(opt.Workers, n))
	blocks, pes := opt.Blocks, max(1, opt.PEs)
	if blocks == nil {
		pes = 1
	}

	// The mapping persists in the Hierarchy, so it is always a fresh
	// allocation; only true temporaries come from the arena.
	//kappa:allow hotalloc the fine→coarse mapping persists in the Hierarchy
	fine2coarse := make([]int32, n)
	//kappa:allow hotalloc one span per goroutine of the count and fill passes
	spans := make([]span, workers)

	// Every unmatched node and the smaller endpoint of every pair creates a
	// coarse node, numbered block-major and in fine order within a block.
	// On the node ranges of graph.ParallelRanges (at most workers), each
	// range counts its creators per block and the fine degree their pairs
	// bring, into its segments: range r's share of block b sits at
	// line + r·stride + b, a cache line apart from every other range's and
	// from the ends of the arrays, as the ranges update their counters for
	// every creator. Prefix sums in (block, range) order give each segment
	// the first id it numbers (at) and the degree before it (deg), and the
	// first span end it may set (ends); then every range numbers its
	// creators (numbering.number). One range runs on the calling goroutine
	// without a closure, so the serial path allocates nothing more.
	const line = 16 // int32s in a 64-byte cache line
	ranges := min(workers, graph.ParallelRanges(opt.Crew, 2*g.NumEdges()))
	stride := pes + line
	size := line + ranges*stride
	at, deg, ends := a.Int32(size), a.Int64(size), a.Int32(size)
	if ranges == 1 {
		countCreators(g, m, blocks, 0, int32(n), at[line:line+pes], deg[line:line+pes])
	} else {
		opt.Crew.Run(ranges, func(_, r int) {
			s := line + r*stride
			countCreators(g, m, blocks, g.RangeStart(r, ranges), g.RangeStart(r+1, ranges), at[s:s+pes], deg[s:s+pes])
		})
	}
	nc, total := int32(0), int64(0)
	for b := range pes {
		for s := line + b; s < size; s += stride {
			at[s], nc = nc, nc+at[s]
			deg[s], total = total, total+deg[s]
		}
	}
	for b, w := 0, int32(0); b < pes; b++ {
		for s := line + b; s < size; s += stride {
			for int(w) < workers-1 && total*int64(w+1)/int64(workers) < deg[s] {
				w++
			}
			ends[s] = w
		}
	}
	for w := range spans {
		spans[w].hi = nc // a span no degree ends (a level without edges) ends with the level
	}
	nb := numbering{fine2coarse, a.Int32(int(nc)), a.Int32(n), spans, total}
	if ranges == 1 {
		nb.number(g, m, blocks, 0, int32(n), at[line:line+pes], deg[line:line+pes], ends[line:line+pes])
	} else {
		opt.Crew.Run(ranges, func(_, r int) {
			s := line + r*stride
			nb.number(g, m, blocks, g.RangeStart(r, ranges), g.RangeStart(r+1, ranges), at[s:s+pes], deg[s:s+pes], ends[s:s+pes])
		})
	}
	a.PutInt32(at)
	a.PutInt64(deg)
	a.PutInt32(ends)
	for w := 1; w < workers; w++ {
		spans[w].lo = spans[w-1].hi
	}

	cg := contractMapped(opt.Crew, g, fine2coarse, nb.head, nb.next, spans, a).graph()
	a.PutInt32(nb.head)
	a.PutInt32(nb.next)
	return cg, fine2coarse
}

// countCreators sets creators[b] to how many of the nodes [lo, hi) of block
// b (all of them in block 0 when blocks is nil) create a coarse node under m
// — unmatched, or the smaller endpoint of a pair — and degree[b] to the fine
// degree of the nodes they gather.
func countCreators(g *graph.Graph, m matching.Matching, blocks []int32, lo, hi int32, creators []int32, degree []int64) {
	clear(creators)
	clear(degree)
	for v := lo; v < hi; v++ {
		if u := m[v]; u < 0 || u > v {
			b := int32(0)
			if blocks != nil {
				b = blocks[v]
			}
			creators[b]++
			degree[b] += int64(g.Degree(v))
			if u >= 0 {
				degree[b] += int64(g.Degree(u))
			}
		}
	}
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

// number numbers the creators among the nodes [lo, hi), maps each and its
// partner, and threads them onto the member lists in ascending order: every
// node is written by the range of its creator. Per block b of blocks (0 for
// all when nil), the range's creators take the ids at[b], at[b]+1, … in fine
// order, deg[b] is the degree the creators numbered before them gather, and
// ends[b] the first span end they may set; number advances all three. Span
// w ends after the coarse node at which the degree summed in coarse order
// first exceeds (w+1)/len(spans) of the total, so the passes split the level
// by the work they do (equal id ranges would let one hub-heavy range
// serialize the level on social graphs); a range sets the ends that fall
// among its creators.
func (nb numbering) number(g *graph.Graph, m matching.Matching, blocks []int32, lo, hi int32, at []int32, deg []int64, ends []int32) {
	workers := int64(len(nb.spans))
	for v := lo; v < hi; v++ {
		u := m[v]
		if u >= 0 && u < v {
			continue
		}
		b := int32(0)
		if blocks != nil {
			b = blocks[v]
		}
		c := at[b]
		at[b] = c + 1
		nb.fine2coarse[v], nb.head[c], nb.next[v] = c, v, u
		d := deg[b] + int64(g.Degree(v))
		if u >= 0 {
			nb.fine2coarse[u], nb.next[u] = c, -1
			d += int64(g.Degree(u))
		}
		deg[b] = d
		for w := int64(ends[b]); w < workers-1 && d > nb.total*(w+1)/workers; w++ {
			nb.spans[w].hi = c + 1
			ends[b] = int32(w + 1)
		}
	}
}

// coarseCSR is a coarse graph as contractMapped leaves it: the CSR arrays,
// the coordinates and the aggregates, all summed on the way.
type coarseCSR struct {
	xadj, adj  []int32
	ewgt, nwgt []int64
	x, y, z    []float64 // nil without coordinates, z nil in 2D
	agg        graph.CSRAggregates
}

// graph adopts c's arrays and coordinates.
func (c coarseCSR) graph() *graph.Graph {
	cg := graph.FromCSRTrusted(c.xadj, c.adj, c.ewgt, c.nwgt, c.agg)
	if c.z != nil {
		cg.SetCoords3(c.x, c.y, c.z)
	} else if c.x != nil {
		cg.SetCoords(c.x, c.y)
	}
	return cg
}

// span is the coarse ids [lo, hi) one goroutine runs the count and fill
// passes over, and what it sums on the way: the half-edges of its rows
// (counted, then where they start), its heaviest node and its rows' edge
// weights.
type span struct {
	lo, hi, half int32
	maxNW, ew    int64
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

	// Exactly-sized coarse CSR (persists).
	//kappa:allow hotalloc exactly-sized CSR arrays persist as the coarse graph
	adj := make([]int32, half)
	//kappa:allow hotalloc exactly-sized CSR arrays persist as the coarse graph
	ewgt := make([]int64, half)
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
		next, ew := sp.half, int64(0)
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
			for _, w := range ewgt[first:next] {
				ew += w
			}
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
		sp.ew = ew
	})

	var totalEW int64
	for _, sp := range spans {
		totalEW += sp.ew
	}
	return coarseCSR{xadj: xadj, adj: adj, ewgt: ewgt, nwgt: nwgt, x: cx, y: cy, z: cz, agg: graph.CSRAggregates{
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
//
// Each level keeps only what the V-cycle still reads. While coarsening, a
// level's graph is read whole by the distributor, the matching and the
// contraction; once the next level is pushed, the pipeline's loop
// (core.CoarsenWith) drops a coarse level's coordinates
// (graph.Graph.DropCoarseningData), which only those passes read, and keeps
// its CSR, node weights and map for uncoarsening. The input graph and
// Coarsest keep everything. Uncoarsening climbs one level per Uncoarsen,
// which forgets the coarse graph and its map as soon as its partition is
// projected, so after the climb the hierarchy holds the input graph alone.
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

// Shrinks reports whether coarse, a contraction of the current coarsest
// graph, is worth pushing: multilevel loops insist on geometric shrinking, at
// most 49/50 of the coarsest graph's nodes, and hand a graph that has stopped
// shrinking to the next phase instead. Both the k-way coarsening loop and the
// initial bisections stop by this one rule.
func (h *Hierarchy) Shrinks(coarse *graph.Graph) bool {
	return coarse.NumNodes() <= h.Coarsest.NumNodes()*49/50
}

// Depth returns the number of contractions recorded.
func (h *Hierarchy) Depth() int { return len(h.Levels) }

// Finer returns the graph one level finer than Coarsest, the graph the next
// Uncoarsen projects onto. It panics on a hierarchy of depth 0.
func (h *Hierarchy) Finer() *graph.Graph { return h.Levels[len(h.Levels)-1].Fine }

// Uncoarsen is one step of uncoarsening: it projects coarsePart, a partition
// of Coarsest, into fine, a caller-provided slice of Finer().NumNodes() — as
// ProjectInto writes it — and then forgets Coarsest and its map, so Finer()
// becomes Coarsest and Depth() falls by one. It returns the new Coarsest.
func (h *Hierarchy) Uncoarsen(coarsePart, fine []int32) *graph.Graph {
	li := len(h.Levels) - 1
	h.ProjectInto(li, coarsePart, fine)
	h.Coarsest = h.Levels[li].Fine
	h.Levels[li] = Level{} // the slot past the end must not keep the map alive
	h.Levels = h.Levels[:li]
	return h.Coarsest
}

// ProjectInto lifts a partition of the graph at level li+1 (coarse side of
// Levels[li]; li == Depth()-1 is Coarsest) to the fine side, writing into a
// caller-provided slice of length Levels[li].Fine.NumNodes(): fine node v
// gets the block of its coarse image.
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
