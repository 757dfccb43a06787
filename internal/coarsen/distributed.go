package coarsen

import (
	"sync"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/matching"
)

// PEContraction is what one PE contributes to the stitched coarse graph: the
// coarse nodes it owns (weights, coordinates) and its share of the coarse
// edges, all in coarse *global* ids. The fields are exported because the
// value crosses process boundaries in the out-of-process backend
// (internal/wire encodes it; the coordinator stitches the decoded parts).
type PEContraction struct {
	FirstCoarse int32   // global id of this PE's first coarse node
	Weights     []int64 // per owned coarse node, in id order
	CX, CY, CZ  []float64
	EdgeU       []int32 // coarse edge contributions (deterministic order)
	EdgeV       []int32
	EdgeW       []int64
	FineGlobal  []int32 // owned fine nodes (global ids) ...
	FineCoarse  []int32 // ... and their coarse global ids, parallel
}

// ContractDistributed contracts a distributed matching PE-locally: every PE
// contracts the owned part of its subgraph, the PEs agree on a global coarse
// numbering (prefix sum over per-PE coarse-node counts), exchange the coarse
// ids of boundary and cross-matched nodes through ex, and the coarse
// subgraphs are stitched back into one global coarse graph through the
// local↔global id maps — so the existing Hierarchy/uncoarsening machinery
// keeps working unchanged on the result.
//
// The coarse node of a pair matched across a cut is owned by the PE owning
// the endpoint with the smaller global id; each cut edge is contributed to
// the stitched graph by exactly one side (again the smaller-global-id
// endpoint's owner), so coarse edge weights come out identical to a
// shared-memory contraction of the same matching. Returns the coarse graph
// and the fine→coarse node map of the global graph.
func ContractDistributed(g *graph.Graph, sgs []*dist.Subgraph, ms []matching.Matching, ex dist.Transport) (*graph.Graph, []int32) {
	pes := len(sgs)
	parts := make([]*PEContraction, pes)
	var wg sync.WaitGroup
	for pe := 0; pe < pes; pe++ {
		wg.Add(1)
		go func(pe int) {
			defer wg.Done()
			parts[pe] = ContractSubgraph(sgs[pe], ms[pe], ex, pe)
		}(pe)
	}
	wg.Wait()
	return Stitch(g, parts)
}

// Stitch assembles the per-PE contraction contributions into the next-level
// global coarse graph and the fine→coarse map. Parts must be ordered by PE;
// every per-PE list is deterministic, so the assembled graph is too.
func Stitch(g *graph.Graph, parts []*PEContraction) (*graph.Graph, []int32) {
	total := 0
	for _, p := range parts {
		total += len(p.Weights)
	}
	nwgt := make([]int64, total)
	var coords [3][]float64
	dims := g.CoordDims()
	if total == 0 {
		dims = 0
	}
	for d := 0; d < dims; d++ {
		coords[d] = make([]float64, total)
	}
	lists := make([]graph.EdgeList, len(parts))
	for pe, p := range parts {
		copy(nwgt[p.FirstCoarse:], p.Weights)
		for d, c := range [][]float64{p.CX, p.CY, p.CZ}[:dims] {
			copy(coords[d][p.FirstCoarse:], c)
		}
		lists[pe] = graph.EdgeList{U: p.EdgeU, V: p.EdgeV, W: p.EdgeW}
	}
	// The parts' edge lists go straight into the coarse CSR: counted,
	// scattered and row-merged (parallel coarse edges sum) by the kernel
	// Builder.Build runs on.
	cg := graph.FromEdgeLists(nwgt, lists)
	switch dims {
	case 3:
		cg.SetCoords3(coords[0], coords[1], coords[2])
	case 2:
		cg.SetCoords(coords[0], coords[1])
	}
	fine2coarse := make([]int32, g.NumNodes())
	for _, p := range parts {
		for i, gv := range p.FineGlobal {
			fine2coarse[gv] = p.FineCoarse[i]
		}
	}
	return cg, fine2coarse
}

// ContractSubgraph is the per-PE side of ContractDistributed: the superstep
// sequence ONE processing element executes to contract its shard. Like
// matching.MatchSubgraph it is exported so an out-of-process worker can run
// exactly the in-process code path against a SocketTransport and ship the
// resulting PEContraction back to the coordinator for Stitch.
func ContractSubgraph(sg *dist.Subgraph, m matching.Matching, ex dist.Transport, pe int) *PEContraction {
	g := sg.Local
	owned := sg.NumOwned
	p := &PEContraction{}

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
	p.FirstCoarse = base

	// Owned coarse node weights and coordinates: the pair partner — even a
	// ghost one — has its weight and coordinates copied into the subgraph,
	// so both are computable locally.
	p.Weights = make([]int64, nOwn)
	hasCoords := g.HasCoords()
	if hasCoords {
		p.CX = make([]float64, nOwn)
		p.CY = make([]float64, nOwn)
		if g.CoordDims() == 3 {
			p.CZ = make([]float64, nOwn)
		}
	}
	members := make([]int32, nOwn) // member count per owned coarse node
	for lv := int32(0); lv < int32(owned); lv++ {
		c := cLocal[lv]
		if c == remote {
			continue
		}
		addMember(p, g, c, lv, members, hasCoords)
		// A cut pair's ghost member is visible only to the owning side.
		if lu := m[lv]; lu >= 0 && int(lu) >= owned {
			addMember(p, g, c, lu, members, hasCoords)
		}
	}
	for c := int32(0); c < nOwn; c++ {
		if hasCoords && members[c] > 0 {
			p.CX[c] /= float64(members[c])
			p.CY[c] /= float64(members[c])
			if p.CZ != nil {
				p.CZ[c] /= float64(members[c])
			}
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
	cGlobal := make([]int32, owned)
	for lv := range cGlobal {
		if cLocal[lv] == remote {
			cGlobal[lv] = -1
		} else {
			cGlobal[lv] = base + cLocal[lv]
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

	// Step 4: publish the coarse id of every boundary node to the PEs that
	// hold it as a ghost, and collect the same for this PE's ghosts.
	bcastOut := make([][]dist.Msg, ex.PEs())
	peerOff, peers := sg.BoundaryPeers()
	for lv := 0; lv < owned; lv++ {
		for _, q := range peers[peerOff[lv]:peerOff[lv+1]] {
			bcastOut[q] = append(bcastOut[q], dist.Msg{
				Kind: dist.MsgCoarseID, A: sg.ToGlobal(int32(lv)), B: cGlobal[lv],
			})
		}
	}
	ghostCoarse := make([]int32, sg.NumGhosts())
	for i := range ghostCoarse {
		ghostCoarse[i] = -1
	}
	for _, msg := range ex.Exchange(pe, bcastOut) {
		if msg.Kind != dist.MsgCoarseID {
			continue
		}
		if lu, ok := sg.ToLocal(msg.A); ok && int(lu) >= owned {
			ghostCoarse[int(lu)-owned] = msg.B
		}
	}

	// Step 5: coarse edge contributions. Each fine edge is contributed once,
	// by the owner of its smaller-global-id endpoint; edges internal to a
	// coarse node vanish. Counted first, so the lists are made at their size.
	coarseOf := func(lv, lu int32) int32 {
		var cu int32
		if int(lu) < owned {
			if lu < lv {
				return -1
			}
			cu = cGlobal[lu]
		} else {
			if sg.ToGlobal(lu) < sg.ToGlobal(lv) {
				return -1
			}
			cu = ghostCoarse[int(lu)-owned]
		}
		if cu == cGlobal[lv] {
			return -1
		}
		return cu
	}
	edges := 0
	for lv := int32(0); lv < int32(owned); lv++ {
		for _, lu := range g.Adj(lv) {
			if coarseOf(lv, lu) >= 0 {
				edges++
			}
		}
	}
	p.EdgeU = make([]int32, 0, edges)
	p.EdgeV = make([]int32, 0, edges)
	p.EdgeW = make([]int64, 0, edges)
	for lv := int32(0); lv < int32(owned); lv++ {
		ws := g.AdjWeights(lv)
		for i, lu := range g.Adj(lv) {
			if cu := coarseOf(lv, lu); cu >= 0 {
				p.EdgeU = append(p.EdgeU, cGlobal[lv])
				p.EdgeV = append(p.EdgeV, cu)
				p.EdgeW = append(p.EdgeW, ws[i])
			}
		}
	}

	p.FineGlobal = make([]int32, owned)
	p.FineCoarse = make([]int32, owned)
	for lv := int32(0); lv < int32(owned); lv++ {
		p.FineGlobal[lv] = sg.ToGlobal(lv)
		p.FineCoarse[lv] = cGlobal[lv]
	}
	return p
}

// addMember folds fine node lv into owned coarse node c.
func addMember(p *PEContraction, g *graph.Graph, c, lv int32, members []int32, hasCoords bool) {
	p.Weights[c] += g.NodeWeight(lv)
	if hasCoords {
		x, y, z := g.Coord3(lv)
		p.CX[c] += x
		p.CY[c] += y
		if p.CZ != nil {
			p.CZ[c] += z
		}
	}
	members[c]++
}
