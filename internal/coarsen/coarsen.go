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
// Both contract by the map with one function, the two-pass scheme of §5.2's
// static-array philosophy: one serial pass over the map threads the members
// of every coarse node onto a list and cuts the coarse ids into spans of
// about equal fine degree, then a count pass sizes the coarse CSR exactly
// (prefix sums become xadj) and a fill pass writes every coarse half-edge
// into its final slot, merging parallel edges with a per-worker scatter
// array. The two passes run over the spans, and ContractWith's numbering
// before them over disjoint node ranges, with no synchronization beyond
// their barriers — and because every worker handles its nodes in exactly the
// order the serial loop would, the resulting graph is byte-identical for any
// worker count. The map may give a coarse node any number of members.
package coarsen

import (
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mem"
	"repro/internal/par"
)

// Options tunes ContractWith. The zero value is one worker, no buffer reuse
// and coarse ids in fine order.
type Options struct {
	// Workers is the number of spans the count and fill passes split the
	// coarse nodes into, and the most node ranges the numbering before them
	// splits into (it also keeps to the floor of graph.ParallelRanges);
	// values < 2 run the passes inline. The member lists and spans between
	// the two are one serial pass over the map. The result is byte-identical
	// for every worker count.
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

// ContractWith contracts every matched edge of m in g. It returns the coarse
// graph and the mapping fine node → coarse node. Contracting {u,v} forms a
// node x with c(x) = c(u)+c(v); parallel coarse edges are merged by summing
// their weights (§2). Coordinates, when present, are carried over as the
// mean of the contracted pair's, in each dimension. opt sets the worker
// count, scratch arena and node distribution.
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

	// Every unmatched node and the smaller endpoint of every pair creates a
	// coarse node, numbered block-major and in fine order within a block.
	// On the node ranges of graph.ParallelRanges (at most workers), each
	// range counts its creators per block into its segment: range r's share
	// of block b sits at line + r·stride + b, a cache line apart from every
	// other range's and from the ends of the array, as the ranges update
	// their counters for every creator. Prefix sums in (block, range) order
	// turn the counts into the first id each segment numbers; then every
	// range maps its creators and their partners. One range runs inline on
	// the calling goroutine, so the serial path allocates nothing more.
	const line = 16 // int32s in a 64-byte cache line
	ranges := min(workers, graph.ParallelRanges(opt.Crew, 2*g.NumEdges()))
	stride := pes + line
	size := line + ranges*stride
	at := a.Int32(size)
	clear(at)
	walk := func(f2c []int32) {
		if ranges == 1 {
			numberCreators(f2c, m, blocks, 0, int32(n), at[line:line+pes])
			return
		}
		opt.Crew.Run(ranges, func(_, r int) {
			s := line + r*stride
			numberCreators(f2c, m, blocks, g.RangeStart(r, ranges), g.RangeStart(r+1, ranges), at[s:s+pes])
		})
	}
	walk(nil)
	nc := int32(0)
	for b := range pes {
		for s := line + b; s < size; s += stride {
			at[s], nc = nc, nc+at[s]
		}
	}
	walk(fine2coarse)
	a.PutInt32(at)

	return contractMapped(opt.Crew, g, fine2coarse, nc, workers, a).graph(), fine2coarse
}

// numberCreators walks the nodes [lo, hi) that create a coarse node under m
// — unmatched, or the smaller endpoint of a pair — in fine order. Per block b
// of blocks (0 for all when nil) they take the ids at[b], at[b]+1, …, and
// at[b] ends past them; a nil fine2coarse only counts them, otherwise each
// creator and its partner are mapped to its id.
func numberCreators(fine2coarse []int32, m matching.Matching, blocks []int32, lo, hi int32, at []int32) {
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
		if fine2coarse != nil {
			fine2coarse[v] = c
			if u >= 0 {
				fine2coarse[u] = c
			}
		}
	}
}

// coarseCSR is a coarse graph as contractMapped leaves it: the CSR arrays,
// the coordinates (one slice per dimension) and the aggregates, all summed on
// the way.
type coarseCSR struct {
	xadj, adj  []int32
	ewgt, nwgt []int64
	coords     [][]float64 // nil without coordinates
	agg        graph.CSRAggregates
}

// graph adopts c's arrays and coordinates.
func (c coarseCSR) graph() *graph.Graph {
	cg := graph.FromCSRTrusted(c.xadj, c.adj, c.ewgt, c.nwgt, c.agg)
	if c.coords != nil {
		cg.SetCoords(c.coords...)
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

// contractMapped is the one contraction by a map, which ContractWith and
// StitchChecked both run: the coarse graph of g under fine2coarse, a map
// onto [0, nc) that leaves no coarse id without a member. It threads the
// members of every coarse node onto ascending lists (memberLists), cuts the
// coarse ids into at most workers spans of about equal fine degree
// (coarseSpans) and runs the count and fill passes, each a batch of one task
// per span on run, with scratch from a (nil allocates). Node weights are the
// members' sums, parallel coarse edges merge by summing their weights, edges
// inside a coarse node vanish, and each row lists its neighbours in the
// order its members' rows first reach them. Each dimension's coordinate is
// the members' mean, summed in ascending member order: the additions of a
// scan over the fine nodes, in its order, so the same bits.
//
//kappa:hotpath
func contractMapped(run *par.Crew, g *graph.Graph, fine2coarse []int32, nc int32, workers int, a *mem.Arena) coarseCSR {
	memberHead, memberNext := memberLists(fine2coarse, nc, a)
	spans := coarseSpans(g, memberHead, memberNext, nc, max(1, min(workers, int(nc))))

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
	fc := g.Coords()
	var cc [][]float64
	if fc != nil && nc > 0 {
		//kappa:allow hotalloc one slice per dimension, persists with the coarse graph
		cc = make([][]float64, len(fc))
		for d := range cc {
			//kappa:allow hotalloc coordinates persist with the coarse graph
			cc[d] = make([]float64, nc)
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
			for d, coarse := range cc {
				fine, sum, k := fc[d], 0.0, 0.0
				for v := memberHead[c]; v >= 0; v = memberNext[v] {
					sum += fine[v]
					k++
				}
				coarse[c] = sum / k
			}
		}
		sp.ew = ew
	})

	a.PutInt32(memberHead)
	a.PutInt32(memberNext)
	var totalEW int64
	for _, sp := range spans {
		totalEW += sp.ew
	}
	return coarseCSR{xadj: xadj, adj: adj, ewgt: ewgt, nwgt: nwgt, coords: cc, agg: graph.CSRAggregates{
		TotalNodeWeight: g.TotalNodeWeight(), TotalEdgeWeight: totalEW / 2, MaxNodeWeight: maxNW}}
}

// memberLists threads the fine nodes of every coarse node of fine2coarse onto
// a list in ascending order: head[c] is c's first member, next[v] the member
// after v, -1 the end. Both are borrowed from a (nil allocates).
func memberLists(fine2coarse []int32, nc int32, a *mem.Arena) (head, next []int32) {
	head, next = a.Int32(int(nc)), a.Int32(len(fine2coarse))
	for c := range head {
		head[c] = -1
	}
	for v := int32(len(fine2coarse)) - 1; v >= 0; v-- {
		c := fine2coarse[v]
		next[v], head[c] = head[c], v
	}
	return head, next
}

// coarseSpans cuts [0, nc) into workers spans, balancing the summed fine
// degrees of each span's coarse members (equal id ranges would let one
// hub-heavy range serialize the level on social graphs).
func coarseSpans(g *graph.Graph, head, next []int32, nc int32, workers int) []span {
	spans := make([]span, workers)
	spans[workers-1].hi = nc
	totalDeg := 2 * int64(g.NumEdges()) // Σ_v deg(v) in CSR
	var acc int64
	w := 0
	for c := int32(0); c < nc && w < workers-1; c++ {
		for v := head[c]; v >= 0; v = next[v] {
			acc += int64(g.Degree(v))
		}
		if acc >= totalDeg*int64(w+1)/int64(workers) {
			spans[w].hi, spans[w+1].lo = c+1, c+1
			w++
		}
	}
	for ; w < workers-1; w++ {
		spans[w].hi, spans[w+1].lo = nc, nc
	}
	return spans
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

// Shrinks reports whether a contraction of n nodes to coarse nodes is worth
// pushing: multilevel loops insist on geometric shrinking, to at most 49/50
// of the nodes, and hand a graph that has stopped shrinking to the next phase
// instead. Both the k-way coarsening loop and the initial bisections stop by
// this one rule. A matching M contracts to n − |M| nodes, so a loop that
// contracts pairs applies the rule before it contracts, and contracts no
// level it would throw away.
func Shrinks(n, coarse int) bool {
	return coarse <= n*49/50
}

// Shrinks reports whether coarse, a contraction of the current coarsest
// graph, is worth pushing, by the package's Shrinks rule.
func (h *Hierarchy) Shrinks(coarse *graph.Graph) bool {
	return Shrinks(h.Coarsest.NumNodes(), coarse.NumNodes())
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
