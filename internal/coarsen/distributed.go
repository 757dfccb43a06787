package coarsen

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/par"
)

// PEContraction is what one PE contributes to the next level: the range of
// coarse global ids it numbered and where each of its owned fine nodes went.
// The coarse graph itself is the coordinator's to build — it holds the level
// the map contracts — so nothing else crosses back. The fields are exported
// because the value crosses process boundaries in the out-of-process backend
// (internal/wire encodes it; the coordinator stitches the decoded parts).
type PEContraction struct {
	FirstCoarse int32   // global id of this PE's first coarse node
	NumCoarse   int32   // coarse nodes this PE numbered, from FirstCoarse on
	FineGlobal  []int32 // owned fine nodes (global ids) ...
	FineCoarse  []int32 // ... and their coarse global ids, parallel
}

// CheckLengths reports whether p describes itself consistently: one coarse
// id per fine node and a coarse count that is not negative. It is what a
// decoder can check of a part on its own, in constant time; StitchChecked
// checks the rest against the level.
func (p *PEContraction) CheckLengths() error {
	if len(p.FineCoarse) != len(p.FineGlobal) {
		return fmt.Errorf("coarsen: contraction maps %d fine nodes to %d coarse ids", len(p.FineGlobal), len(p.FineCoarse))
	}
	if p.NumCoarse < 0 {
		return fmt.Errorf("coarsen: contraction numbers %d coarse nodes", p.NumCoarse)
	}
	return nil
}

// PartError is a contraction part that does not fit the level it was
// returned for: the PE whose part it is, and what is wrong with it. PE is -1
// when the parts are wrong only together.
type PartError struct {
	PE  int
	Err error
}

func (e *PartError) Error() string { return fmt.Sprintf("coarsen: part of PE %d: %v", e.PE, e.Err) }
func (e *PartError) Unwrap() error { return e.Err }

// Stitch builds the next-level global coarse graph and the fine→coarse map
// from the per-PE parts. Parts must be ordered by PE. It is StitchChecked for
// parts this process computed itself.
//
//kappa:invariant ContractSubgraph emits ids of the level it contracts; parts that crossed a process boundary go through StitchChecked
func Stitch(g *graph.Graph, parts []*PEContraction) (*graph.Graph, []int32) {
	cg, fine2coarse, err := StitchChecked(nil, g, parts)
	if err != nil {
		panic(err.Error())
	}
	return cg, fine2coarse
}

// StitchChecked is Stitch for parts received from another process: nothing
// in them is trusted, and a part that does not fit the level is a *PartError
// naming its PE instead of a panic. The parts must tile the coarse id range
// in PE order, map every node of g exactly once and to a coarse id in the
// tiled range, and leave no coarse id without a fine member. The tiling and
// the fine-node count are checked by the sizing pass, the rest by the fill of
// the map.
//
// The map then contracts g itself with the count and fill passes of
// ContractWith — g is the coordinator's own level, so no edge, weight or
// coordinate a part could get wrong is read from it — and a last pass sorts
// each row, so the graph comes out exactly as the edge-list merge of the
// workers' coarse edges used to build it: rows ascending, weights summed,
// coordinates the means of at most two members, which IEEE addition sums
// the same in either order. The passes run on graph.ParallelRanges of g's
// half-edges, batches on run.
func StitchChecked(run *par.Crew, g *graph.Graph, parts []*PEContraction) (*graph.Graph, []int32, error) {
	n := g.NumNodes()
	total, fine := 0, 0
	for pe, p := range parts {
		if err := p.CheckLengths(); err != nil {
			return nil, nil, &PartError{pe, err}
		}
		if int(p.FirstCoarse) != total {
			return nil, nil, &PartError{pe, fmt.Errorf("first coarse id %d, but the parts before it end at %d", p.FirstCoarse, total)}
		}
		// Every coarse node has a member, so no level has more coarse nodes
		// than fine ones; checked before the count sizes anything.
		if total += int(p.NumCoarse); total > n {
			return nil, nil, &PartError{pe, fmt.Errorf("coarse nodes up to %d in a level of %d nodes", total, n)}
		}
		fine += len(p.FineGlobal)
	}
	// As many map entries as nodes and, below, none of them written twice:
	// every node is mapped.
	if fine != n {
		return nil, nil, &PartError{-1, fmt.Errorf("the parts map %d fine nodes of a level of %d", fine, n)}
	}
	fine2coarse := make([]int32, n)
	for i := range fine2coarse {
		fine2coarse[i] = -1
	}
	hit := make([]uint64, (total+63)/64)
	for pe, p := range parts {
		if i := fillMap(fine2coarse, hit, p.FineGlobal, p.FineCoarse, int32(total)); i >= 0 {
			return nil, nil, &PartError{pe, fmt.Errorf("fine node %d → coarse node %d: mapped before, or outside a level of %d → %d nodes", p.FineGlobal[i], p.FineCoarse[i], n, total)}
		}
	}
	if c := firstMiss(hit, total); c >= 0 {
		pe := sort.Search(len(parts), func(q int) bool { return int(parts[q].FirstCoarse)+int(parts[q].NumCoarse) > c })
		return nil, nil, &PartError{pe, fmt.Errorf("coarse node %d has no fine member", c)}
	}

	workers := graph.ParallelRanges(run, 2*g.NumEdges())
	head, next := memberLists(fine2coarse, int32(total))
	cc := contractMapped(run, g, fine2coarse, head, next, coarseSpans(g, head, next, int32(total), max(1, min(workers, total))), nil)
	sortRows(run, cc, workers)
	return cc.graph(), fine2coarse, nil
}

// coarseSpans cuts [0, nc) into workers spans, balancing the summed fine
// degrees of each span's coarse members.
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

// memberLists threads the fine nodes of every coarse node of fine2coarse onto
// a list in ascending order: head[c] is c's first member, next[v] the member
// after v, -1 the end.
func memberLists(fine2coarse []int32, nc int32) (head, next []int32) {
	head, next = make([]int32, nc), make([]int32, len(fine2coarse))
	for c := range head {
		head[c] = -1
	}
	for v := int32(len(fine2coarse)) - 1; v >= 0; v-- {
		c := fine2coarse[v]
		next[v], head[c] = head[c], v
	}
	return head, next
}

// fillMap sets fine2coarse[fine[i]] = coarse[i] and the bit of coarse[i] in
// hit for every i, and returns the first i whose fine id lies outside the map
// or has an entry already (the map starts at -1 everywhere), or whose coarse
// id lies outside [0, total); -1 when there is none.
//
//kappa:hotpath
func fillMap(fine2coarse []int32, hit []uint64, fine, coarse []int32, total int32) int {
	for i, gv := range fine {
		c := coarse[i]
		if uint32(gv) >= uint32(len(fine2coarse)) || uint32(c) >= uint32(total) || fine2coarse[gv] >= 0 {
			return i
		}
		fine2coarse[gv] = c
		hit[c>>6] |= 1 << (c & 63)
	}
	return -1
}

// firstMiss returns the first id below total whose bit is clear in hit, or
// -1.
func firstMiss(hit []uint64, total int) int {
	for w, word := range hit {
		if c := w<<6 + bits.TrailingZeros64(^word); word != ^uint64(0) && c < total {
			return c
		}
	}
	return -1
}

// sortRows sorts every row of c by neighbour, a batch on run of workers row
// ranges of about equal half-edges.
func sortRows(run *par.Crew, c coarseCSR, workers int) {
	nc := len(c.xadj) - 1
	half := int64(c.xadj[nc])
	bound := func(r int) int { // the first row of range r; trailing empty rows belong to none
		return sort.Search(nc, func(v int) bool { return int64(c.xadj[v])*int64(workers) >= half*int64(r) })
	}
	run.Run(workers, func(_, r int) {
		var rs graph.RowSorter
		for v, hi := bound(r), bound(r+1); v < hi; v++ {
			rs.Sort(c.adj[c.xadj[v]:c.xadj[v+1]], c.ewgt[c.xadj[v]:c.xadj[v+1]])
		}
	})
}

// ContractSubgraph is the per-PE side of a distributed contraction: the
// superstep sequence ONE processing element executes to number the coarse
// nodes of its owned part of its subgraph, after its matching
// (matching.MatchSubgraph). The PEs agree on a global coarse numbering — a
// prefix sum over per-PE coarse-node counts — and exchange the coarse ids of
// cross-matched nodes through ex; the coarse node of a pair matched across a
// cut is owned by the PE owning the endpoint with the smaller global id. The
// coordinator then contracts the level by the parts (StitchChecked). Every
// PE, in process or in a worker, runs it through core.PELevel.
func ContractSubgraph(sg *dist.Subgraph, m matching.Matching, ex dist.Transport, pe int) *PEContraction {
	owned := sg.NumOwned

	// Step 1: decide, for every owned node, which coarse node it joins and
	// who owns that coarse node. Owned nodes are stored in ascending global
	// id order, so "smaller local id" and "smaller global id" agree for
	// owned–owned pairs.
	const remote = int32(-2) // coarse id owned by the partner's PE, arrives in step 3
	cLocal := make([]int32, owned)
	nOwn := int32(0)
	for lv := int32(0); lv < int32(owned); lv++ {
		lu := m[lv]
		switch {
		case lu < 0: // unmatched: singleton coarse node
			cLocal[lv] = nOwn
			nOwn++
		case int(lu) < owned: // matched inside the PE
			if lu > lv {
				cLocal[lv] = nOwn
				nOwn++
			} else {
				cLocal[lv] = cLocal[lu]
			}
		default: // matched across a cut: smaller global id owns the pair
			if sg.ToGlobal(lv) < sg.ToGlobal(lu) {
				cLocal[lv] = nOwn
				nOwn++
			} else {
				cLocal[lv] = remote
			}
		}
	}

	// Step 2: prefix-sum the per-PE coarse-node counts for the global
	// numbering.
	countOut := make([][]dist.Msg, ex.PEs())
	for q := range countOut {
		countOut[q] = []dist.Msg{{Kind: dist.MsgCount, W: int64(nOwn)}}
	}
	base := int32(0)
	for i, msg := range ex.Exchange(pe, countOut) {
		if i < pe {
			base += int32(msg.W)
		}
	}

	// Step 3: send the coarse global id of every cut-matched pair to the
	// partner's owner, so the non-owning side learns where its node went.
	crossOut := make([][]dist.Msg, ex.PEs())
	for lv := int32(0); lv < int32(owned); lv++ {
		lu := m[lv]
		if lu >= 0 && int(lu) >= owned && cLocal[lv] != remote {
			q := sg.GhostOwner[int(lu)-owned]
			crossOut[q] = append(crossOut[q], dist.Msg{
				Kind: dist.MsgCoarseID, A: sg.ToGlobal(lu), B: base + cLocal[lv],
			})
		}
	}
	cGlobal := cLocal // rewritten in place: step 1's ids are read no more
	for lv, c := range cGlobal {
		if c == remote {
			cGlobal[lv] = -1
		} else {
			cGlobal[lv] = base + c
		}
	}
	for _, msg := range ex.Exchange(pe, crossOut) {
		if msg.Kind != dist.MsgCoarseID {
			continue
		}
		if lv, ok := sg.ToLocal(msg.A); ok && int(lv) < owned {
			cGlobal[lv] = msg.B
		}
	}
	return &PEContraction{
		FirstCoarse: base,
		NumCoarse:   nOwn,
		FineGlobal:  slices.Clone(sg.LocalToGlobal[:owned]),
		FineCoarse:  cGlobal,
	}
}
