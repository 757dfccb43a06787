package coarsen

import (
	"errors"
	"fmt"
	"sort"
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

// CheckLengths reports whether p's parallel arrays agree in length: one
// target and one weight per edge source, one coarse id per fine node, and
// every coordinate array either absent or as long as the weights. It is what
// a decoder can check of a part on its own, in constant time; StitchChecked
// checks the rest against the level.
func (p *PEContraction) CheckLengths() error {
	if len(p.EdgeV) != len(p.EdgeU) || len(p.EdgeW) != len(p.EdgeU) {
		return fmt.Errorf("coarsen: contraction has %d edge sources, %d targets, %d weights", len(p.EdgeU), len(p.EdgeV), len(p.EdgeW))
	}
	if len(p.FineCoarse) != len(p.FineGlobal) {
		return fmt.Errorf("coarsen: contraction maps %d fine nodes to %d coarse ids", len(p.FineGlobal), len(p.FineCoarse))
	}
	for _, c := range [][]float64{p.CX, p.CY, p.CZ} {
		if c != nil && len(c) != len(p.Weights) {
			return fmt.Errorf("coarsen: contraction has %d coordinates for %d coarse nodes", len(c), len(p.Weights))
		}
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

// Stitch assembles the per-PE contraction contributions into the next-level
// global coarse graph and the fine→coarse map. Parts must be ordered by PE;
// every per-PE list is deterministic, so the assembled graph is too. It is
// StitchChecked for parts this process computed itself.
//
//kappa:invariant ContractSubgraph emits ids of the level it contracts; parts that crossed a process boundary go through StitchChecked
func Stitch(g *graph.Graph, parts []*PEContraction) (*graph.Graph, []int32) {
	cg, fine2coarse, err := StitchChecked(g, parts)
	if err != nil {
		panic(err.Error())
	}
	return cg, fine2coarse
}

// StitchChecked is Stitch for parts received from another process: nothing
// in them is trusted, and a part that does not fit the level is a *PartError
// naming its PE instead of a panic. The parts must tile the coarse id range
// in PE order, their arrays agree in length, map every node of g exactly once
// and to a coarse id in the tiled range, name only such ids in their edges,
// carry no negative node weight and no edge weight that is not positive, given
// or merged. Each check is made by the loop that reads the value anyway: the
// tiling and the fine-node count by the sizing pass, the fine-node ids by the
// fill of the map, node weights, edge ids and edge weights by the passes of
// graph.FromEdgeLists, whose error says which list — which part — it is about.
//
// The parts are placed one after another on the calling goroutine: that is
// 1.9 ns a fine node on the reference box (61 µs for the two parts of rgg15's
// level 0), under the 85–100 µs one goroutine takes to wake there
// (EXPERIMENTS.md "PR 24", parallel placement measured and left out). The
// part of a stitch that pays on a second core is FromEdgeLists.
func StitchChecked(g *graph.Graph, parts []*PEContraction) (*graph.Graph, []int32, error) {
	total, fine, dims := 0, 0, g.CoordDims()
	for pe, p := range parts {
		if err := p.CheckLengths(); err != nil {
			return nil, nil, &PartError{pe, err}
		}
		if int(p.FirstCoarse) != total {
			return nil, nil, &PartError{pe, fmt.Errorf("first coarse id %d, but the parts before it end at %d", p.FirstCoarse, total)}
		}
		for d, c := range [][]float64{p.CX, p.CY, p.CZ}[:dims] {
			if len(c) != len(p.Weights) { // a dimension of the level the part leaves out
				return nil, nil, &PartError{pe, fmt.Errorf("%d coordinates in dimension %d for %d coarse nodes", len(c), d, len(p.Weights))}
			}
		}
		total += len(p.Weights)
		fine += len(p.FineGlobal)
	}
	// As many map entries as nodes and, below, none of them written twice:
	// every node is mapped.
	if fine != g.NumNodes() {
		return nil, nil, &PartError{-1, fmt.Errorf("the parts map %d fine nodes of a level of %d", fine, g.NumNodes())}
	}
	nwgt := make([]int64, total)
	var coords [3][]float64
	if total == 0 {
		dims = 0
	}
	for d := 0; d < dims; d++ {
		coords[d] = make([]float64, total)
	}
	lists := make([]graph.EdgeList, len(parts))
	fine2coarse := make([]int32, fine)
	for i := range fine2coarse {
		fine2coarse[i] = -1
	}
	for pe, p := range parts {
		copy(nwgt[p.FirstCoarse:], p.Weights)
		for d, c := range [][]float64{p.CX, p.CY, p.CZ}[:dims] {
			copy(coords[d][p.FirstCoarse:], c)
		}
		lists[pe] = graph.EdgeList{U: p.EdgeU, V: p.EdgeV, W: p.EdgeW}
		if i := fillMap(fine2coarse, p.FineGlobal, p.FineCoarse, int32(total)); i >= 0 {
			return nil, nil, &PartError{pe, fmt.Errorf("fine node %d → coarse node %d: mapped before, or outside a level of %d → %d nodes", p.FineGlobal[i], p.FineCoarse[i], fine, total)}
		}
	}
	// The parts' edge lists go straight into the coarse CSR: counted,
	// scattered and row-merged (parallel coarse edges sum) by the kernel
	// Builder.Build runs on.
	cg, err := graph.FromEdgeLists(nwgt, lists)
	if err != nil {
		pe := -1
		var in *graph.InputError
		if errors.As(err, &in) {
			pe = in.List // list pe is part pe's
			if in.Node >= 0 {
				pe = sort.Search(len(parts), func(q int) bool { return int(parts[q].FirstCoarse)+len(parts[q].Weights) > in.Node })
			}
		}
		return nil, nil, &PartError{pe, err}
	}
	switch dims {
	case 3:
		cg.SetCoords3(coords[0], coords[1], coords[2])
	case 2:
		cg.SetCoords(coords[0], coords[1])
	}
	return cg, fine2coarse, nil
}

// fillMap sets fine2coarse[fine[i]] = coarse[i] for every i and returns the
// first i whose fine id lies outside the map or has an entry already (the
// map starts at -1 everywhere), or whose coarse id lies outside [0, total);
// -1 when there is none.
//
//kappa:hotpath
func fillMap(fine2coarse, fine, coarse []int32, total int32) int {
	for i, gv := range fine {
		c := coarse[i]
		if uint32(gv) >= uint32(len(fine2coarse)) || uint32(c) >= uint32(total) || fine2coarse[gv] >= 0 {
			return i
		}
		fine2coarse[gv] = c
	}
	return -1
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
