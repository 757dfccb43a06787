package matching

import (
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/par"
	"repro/internal/rating"
	"repro/internal/rng"
)

// ParallelScratch computes a matching with the scheme of §3.3: the node set is
// prepartitioned into nparts blocks (block[v] gives the block of v, e.g.
// from recursive coordinate bisection); a sequential matching algorithm runs
// concurrently on the internal edges of every block; finally the *gap graph*
// — cross-block edges whose rating exceeds that of the edges matched locally
// to both endpoints — is matched by iterated locally-heaviest matching
// (Manne–Bisseling style). When a gap edge wins, the local matches of its
// endpoints are dissolved.
//
// The result is a valid matching of g; with nparts == 1 the function is
// ComputeScratch. maxPair bounds the combined node weight per matched pair
// (0 = unbounded). Every temporary — the per-block node groups, candidate and
// gap edge arrays, local-rating table, and the returned matching itself — is
// drawn from a (nil = allocate fresh). The caller owns the result; hand it
// back with a.PutInt32([]int32(m)) when done. The arena is safe to share
// between the concurrent per-block workers, which run on goroutines started
// for the call, at most GOMAXPROCS of them (a nil par.Crew).
func ParallelScratch(g *graph.Graph, rt *rating.Rater, alg Algorithm, block []int32, nparts int, seed uint64, maxPair int64, a *mem.Arena) Matching {
	return Parallel(nil, g, rt, alg, block, nparts, seed, maxPair, true, a)
}

// Parallel is ParallelScratch on a run's crew, its per-block matchings and
// gap-edge scan batches claimed by the crew's members, with the gap phase run
// only when gap is set. Without it every block is matched on its internal
// edges only, so no pair crosses blocks — the no-gap-matching ablation, and
// the shared-memory counterpart of DistributedBounded with boundary false.
func Parallel(run *par.Crew, g *graph.Graph, rt *rating.Rater, alg Algorithm, block []int32, nparts int, seed uint64, maxPair int64, gap bool, a *mem.Arena) Matching {
	n := g.NumNodes()
	if nparts <= 1 {
		return ComputeScratch(g, rt, alg, rng.NewStream(seed, 0), maxPair, a)
	}
	m := newEmptyIn(a, n)
	// localRating[v] is the rating of v's local match (0 when unmatched),
	// which the gap phase compares against, written by v's block once its
	// matching is done. EdgeWeightTo binary-searches on sorted-adjacency
	// graphs (the finest level); contracted levels fall back to the linear
	// scan.
	localRating := a.Float64(n)

	// Group nodes by block, CSR-style: one flat arena buffer plus offsets
	// instead of nparts growing slices. Within each block the nodes stay in
	// ascending order, exactly as the append-based grouping produced.
	off := a.Int32(nparts + 1)
	clear(off)
	for v := 0; v < n; v++ {
		off[block[v]+1]++
	}
	for b := 0; b < nparts; b++ {
		off[b+1] += off[b]
	}
	flat := a.Int32(n)
	cursor := a.Int32(nparts)
	copy(cursor, off[:nparts])
	for v := 0; v < n; v++ {
		b := block[v]
		flat[cursor[b]] = int32(v)
		cursor[b]++
	}
	a.PutInt32(cursor)
	nodesOf := func(b int) []int32 { return flat[off[b]:off[b+1]] }

	// Phase 1: local matching per block, the blocks claimed by the members
	// of run, so that no more blocks hold their scratch at once than there
	// are processors. Each task touches only m[v] and localRating[v] for v in
	// its block, so no synchronization beyond the batch's end is needed.
	run.Run(nparts, func(_, p int) {
		r := rng.NewStream(seed, uint64(p))
		nodes := nodesOf(p)
		switch alg {
		case SHEM:
			inSet := a.Bool(n)
			for _, v := range nodes {
				inSet[v] = true
			}
			shemInto(g, rt, r, nodes, inSet, m, maxPair, a)
			a.PutBool(inSet)
		default:
			// Edge-based algorithms run on the block's internal edges:
			// at most half the block's degree sum, so the buffer
			// never grows while it fills.
			degSum := 0
			for _, v := range nodes {
				degSum += g.Degree(v)
			}
			buf := getEdges(degSum / 2)
			edges := *buf
			for _, v := range nodes {
				adj := g.Adj(v)
				ws := g.AdjWeights(v)
				for i, u := range adj {
					if u > v && block[u] == block[v] {
						edges = append(edges, Edge{v, u, rt.Rate(v, u, ws[i]), uint32(r.Uint64())})
					}
				}
			}
			if alg == Greedy {
				greedyEdges(g, edges, m, maxPair, a)
			} else {
				gpaEdges(g, edges, m, maxPair, a)
			}
			*buf = edges
			putEdges(buf)
		}
		if gap {
			for _, v := range nodes {
				localRating[v] = 0
				if u := m[v]; u >= 0 {
					localRating[v] = rt.Rate(v, u, g.EdgeWeightTo(v, u))
				}
			}
		}
	})
	a.PutInt32(flat)
	a.PutInt32(off)

	// Phase 2: gap graph.
	if gap {
		gapBuf := gapEdges(run, g, rt, block, localRating, maxPair)
		matchLocallyHeaviest(n, *gapBuf, m, a)
		putEdges(gapBuf)
	}
	a.PutFloat64(localRating)
	return m
}

// gapEdges collects the gap graph: every cross-block edge {v, u}, v < u,
// within maxPair whose rating beats the local matches of both endpoints, in
// the order of a scan over v and its adjacency. Above the floor of
// graph.ParallelRanges the scan runs on node ranges, a batch on run, and their
// lists are joined in range order — the serial scan's list.
func gapEdges(run *par.Crew, g *graph.Graph, rt *rating.Rater, block []int32, localRating []float64, maxPair int64) *[]Edge {
	ranges := graph.ParallelRanges(run, 2*g.NumEdges())
	if ranges == 1 {
		buf := getEdges(0)
		*buf = appendGapEdges(*buf, g, rt, block, localRating, maxPair, 0, int32(g.NumNodes()))
		return buf
	}
	bufs := make([]*[]Edge, ranges)
	run.Run(ranges, func(_, r int) {
		bufs[r] = getEdges(0)
		*bufs[r] = appendGapEdges(*bufs[r], g, rt, block, localRating, maxPair, g.RangeStart(r, ranges), g.RangeStart(r+1, ranges))
	})
	for _, buf := range bufs[1:] {
		*bufs[0] = append(*bufs[0], *buf...)
		putEdges(buf)
	}
	return bufs[0]
}

// appendGapEdges appends the gap edges of the nodes [lo, hi) to gap.
func appendGapEdges(gap []Edge, g *graph.Graph, rt *rating.Rater, block []int32, localRating []float64, maxPair int64, lo, hi int32) []Edge {
	for v := lo; v < hi; v++ {
		adj := g.Adj(v)
		ws := g.AdjWeights(v)
		for i, u := range adj {
			if u <= v || block[u] == block[v] {
				continue
			}
			if maxPair > 0 && g.NodeWeight(v)+g.NodeWeight(u) > maxPair {
				continue
			}
			r := rt.Rate(v, u, ws[i])
			if r > localRating[v] && r > localRating[u] {
				gap = append(gap, Edge{v, u, r, 0})
			}
		}
	}
	return gap
}

// matchLocallyHeaviest iteratively matches gap edges that are the heaviest
// remaining gap edge at both endpoints. Endpoints that had a (lighter) local
// match get it dissolved. Terminates because every round either matches an
// edge or runs out of edges. n is the node count of the underlying graph.
func matchLocallyHeaviest(n int, gap []Edge, m Matching, a *mem.Arena) {
	if len(gap) == 0 {
		return
	}
	gapMatched := a.Bool(n) // nodes matched during the gap phase
	best := a.Int32(n)      // best[v] = index of v's heaviest remaining gap edge
	for i := range best {
		best[i] = -1
	}
	better := func(i, j int32) bool {
		if gap[i].R != gap[j].R {
			return gap[i].R > gap[j].R
		}
		// Deterministic tie break on endpoints.
		if gap[i].U != gap[j].U {
			return gap[i].U < gap[j].U
		}
		return gap[i].V < gap[j].V
	}
	for len(gap) > 0 {
		for i, e := range gap {
			if j := best[e.U]; j < 0 || better(int32(i), j) {
				best[e.U] = int32(i)
			}
			if j := best[e.V]; j < 0 || better(int32(i), j) {
				best[e.V] = int32(i)
			}
		}
		progress := false
		for i, e := range gap {
			if best[e.U] == int32(i) && best[e.V] == int32(i) {
				// Dissolve local matches, then adopt the gap edge.
				if old := m[e.U]; old >= 0 {
					m[old] = -1
				}
				if old := m[e.V]; old >= 0 {
					m[old] = -1
				}
				m[e.U], m[e.V] = e.V, e.U
				gapMatched[e.U], gapMatched[e.V] = true, true
				progress = true
			}
		}
		if !progress {
			break
		}
		// Compact: drop edges incident to matched nodes so later rounds scan
		// only the live remainder.
		live := gap[:0]
		for _, e := range gap {
			best[e.U], best[e.V] = -1, -1
			if !gapMatched[e.U] && !gapMatched[e.V] {
				live = append(live, e)
			}
		}
		gap = live
	}
	a.PutInt32(best)
	a.PutBool(gapMatched)
}
