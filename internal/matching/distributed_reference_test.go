package matching

import (
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/rating"
	"repro/internal/rng"
)

// ReferenceMatchSubgraph exports the oracle to the external test package,
// whose fuzz target contracts levels with package coarsen (which imports
// matching; an internal test would cycle).
var ReferenceMatchSubgraph = referenceMatchSubgraph

// referenceMatchSubgraph is MatchSubgraph as it stood before the sequential
// phase was written once, kept as the oracle: its own phase 1 — SHEM over an
// owner map, the edge-based matchers over a counted, filled owned–owned edge
// array on all nodes' scratch — and the gap rounds' local ratings recomputed
// from the matching with EdgeWeightTo wherever they are read.
func referenceMatchSubgraph(sg *dist.Subgraph, ex dist.Transport, rf rating.Func, alg Algorithm, seed uint64, maxPair int64, boundary bool, pe int) Matching {
	g := sg.Local
	n := g.NumNodes()
	owned := sg.NumOwned
	m := NewEmpty(n)
	r := rng.NewStream(seed, uint64(pe))
	rt := rating.NewRater(rf, g)

	switch alg {
	case SHEM:
		nodes := make([]int32, owned)
		owner := make([]int32, n)
		for i := range nodes {
			nodes[i] = int32(i)
			owner[i] = sg.PE
		}
		copy(owner[owned:], sg.GhostOwner)
		shemInto(g, rt, r, nodes, owner, sg.PE, m, nil, maxPair, nil)
	default:
		edges := make([]Edge, referenceInternalEdges(g, owned))
		k := 0
		for lv := int32(0); lv < int32(owned); lv++ {
			adj, ws := g.Adj(lv), g.AdjWeights(lv)
			for i, lu := range adj {
				if lu > lv && int(lu) < owned {
					edges[k] = Edge{lv, lu, rt.Rate(lv, lu, ws[i]), uint32(r.Uint64())}
					k++
				}
			}
		}
		if alg == Greedy {
			greedyEdges(g, edges, m, nil, maxPair, nil)
		} else {
			gpaEdges(g, nil, edges, m, nil, maxPair, nil)
		}
	}

	// Boundary bookkeeping: the owner PEs holding owned node lv as a ghost
	// are peers[peerOff[lv]:peerOff[lv+1]], in deterministic (ascending)
	// send order.
	peerOff, peers := sg.BoundaryPeers()
	var bnodes []int32
	for lv := int32(0); lv < int32(owned); lv++ {
		if peerOff[lv+1] > peerOff[lv] {
			bnodes = append(bnodes, lv)
		}
	}

	localRating := func(lv int32) float64 {
		if u := m[lv]; u >= 0 {
			return rt.Rate(lv, u, g.EdgeWeightTo(lv, u))
		}
		return 0
	}

	crossMatched := make([]bool, n)
	ghostRating := make([]float64, sg.NumGhosts())
	ghostFinal := make([]bool, sg.NumGhosts())
	prop := make([]int32, owned)

	// Phase 2: iterated boundary rounds. Every PE executes the same superstep
	// sequence per round (state exchange, proposal exchange, termination
	// vote) even when it owns no boundary nodes, so the Transport stays in
	// lockstep across PEs — including PEs with empty subgraphs.
	for round := 0; ; round++ {
		// 2a: publish boundary state to the PEs holding each node as ghost.
		stateOut := make([][]dist.Msg, ex.PEs())
		for _, lv := range bnodes {
			msg := dist.Msg{Kind: dist.MsgGhostState, A: sg.ToGlobal(lv), R: localRating(lv)}
			if crossMatched[lv] {
				msg.W = 1
			}
			for _, q := range peers[peerOff[lv]:peerOff[lv+1]] {
				stateOut[q] = append(stateOut[q], msg)
			}
		}
		for _, msg := range ex.Exchange(pe, stateOut) {
			if lu, ok := sg.ToLocal(msg.A); ok && int(lu) >= owned {
				ghostRating[int(lu)-owned] = msg.R
				ghostFinal[int(lu)-owned] = msg.W != 0
			}
		}

		// 2b: propose the best eligible cut edge of every boundary node. An
		// edge is eligible when its rating beats the local matches of *both*
		// endpoints (each side checks with the state just published), exactly
		// the gap-graph condition of the shared-memory scheme.
		propOut := make([][]dist.Msg, ex.PEs())
		for i := range prop {
			prop[i] = -1
		}
		if boundary {
			for _, lv := range bnodes {
				if crossMatched[lv] {
					continue
				}
				mine := localRating(lv)
				adj, ws := g.Adj(lv), g.AdjWeights(lv)
				best, bestR := int32(-1), 0.0
				for i, lu := range adj {
					gi := int(lu) - owned
					if gi < 0 || ghostFinal[gi] {
						continue
					}
					if maxPair > 0 && g.NodeWeight(lv)+g.NodeWeight(lu) > maxPair {
						continue
					}
					rr := rt.Rate(lv, lu, ws[i])
					if rr <= mine || rr <= ghostRating[gi] {
						continue
					}
					// Deterministic preference: higher rating, then smaller
					// global id of the ghost endpoint.
					if best < 0 || rr > bestR || (rr == bestR && sg.ToGlobal(lu) < sg.ToGlobal(best)) {
						best, bestR = lu, rr
					}
				}
				if best >= 0 {
					prop[lv] = best
					q := sg.GhostOwner[int(best)-owned]
					propOut[q] = append(propOut[q], dist.Msg{
						Kind: dist.MsgProposal, A: sg.ToGlobal(lv), B: sg.ToGlobal(best), R: bestR,
					})
				}
			}
		}

		// 2c: accept exactly the mutual proposals. Both endpoint owners see
		// the pair (each receives the other's proposal and knows its own), so
		// they reach the same verdict without a confirmation round.
		progress := false
		for _, msg := range ex.Exchange(pe, propOut) {
			if msg.Kind != dist.MsgProposal {
				continue
			}
			lb, ok := sg.ToLocal(msg.B)
			if !ok || int(lb) >= owned {
				continue
			}
			la, ok := sg.ToLocal(msg.A)
			if !ok || prop[lb] != la {
				continue
			}
			// Mutual: dissolve the (lighter) local match, adopt the cut edge.
			if old := m[lb]; old >= 0 {
				m[old] = -1
			}
			m[lb], m[la] = la, lb
			crossMatched[lb] = true
			progress = true
		}

		if !dist.AllReduceOr(ex, pe, progress) {
			break
		}
	}
	return m
}

// referenceInternalEdges counts the owned–owned edges of a subgraph's local
// graph.
func referenceInternalEdges(g *graph.Graph, owned int) int {
	m := 0
	for lv := int32(0); lv < int32(owned); lv++ {
		for _, lu := range g.Adj(lv) {
			if lu > lv && int(lu) < owned {
				m++
			}
		}
	}
	return m
}
