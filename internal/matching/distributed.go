package matching

import (
	"sync"

	"repro/internal/dist"
	"repro/internal/mem"
	"repro/internal/rating"
	"repro/internal/rng"
)

// DistributedBounded computes a matching of a distributed graph the way §3
// of the paper prescribes: every PE runs the sequential algorithm on the
// internal (owned–owned) edges of its own subgraph, then the PEs resolve the
// boundary in iterated two-phase rounds over the Transport — each PE publishes
// the matching state of its boundary nodes to the PEs holding them as ghosts,
// proposes its best eligible cut edges across the cut, and accepts exactly
// the proposals that were mutual, with the deterministic tie-break on global
// id making both sides reach the same verdict independently.
//
// maxPair is the maximum combined node weight per matched pair (0 =
// unbounded). With boundary false the PEs match only their internal edges
// (the distributed counterpart of the no-gap-matching ablation) but still
// participate in the termination votes so the superstep counts stay aligned.
//
// The result is one Matching per PE in *local* ids over sgs[pe].Local: an
// owned node matched across a cut points at the ghost local id of its
// partner (and the partner's PE records the mirrored pair), so each is a
// valid matching of its sgs[pe].Local.
//
// Every randomized choice draws from an rng stream derived from (seed, PE)
// and every cross-PE message sequence is schedule-independent, so the result
// is byte-identical across runs — and across GOMAXPROCS settings — for a
// fixed seed.
func DistributedBounded(sgs []*dist.Subgraph, ex dist.Transport, rf rating.Func, alg Algorithm, seed uint64, maxPair int64, boundary bool) []Matching {
	out := make([]Matching, len(sgs))
	// One goroutine per PE, as core.DistributedLevel runs them: the PEs meet
	// at the transport's barriers.
	var wg sync.WaitGroup
	for pe := range sgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[pe] = MatchSubgraph(sgs[pe], ex, rf, alg, seed, maxPair, boundary, pe, nil)
		}()
	}
	wg.Wait()
	return out
}

// MatchSubgraph is the per-PE side of DistributedBounded: the superstep
// sequence ONE processing element executes against its own subgraph shard.
// In-process runs start it per PE over a shared Transport; an out-of-process
// worker (kappa worker) calls it with its shard and a SocketTransport — both
// through core.PELevel —, which is what makes the distributed matching phase
// runnable one-OS-process-per-PE without a second code path. The sequential
// phase borrows its temporaries from a (nil = allocate fresh), which must not
// be in use by another PE's kernel at the same time.
func MatchSubgraph(sg *dist.Subgraph, ex dist.Transport, rf rating.Func, alg Algorithm, seed uint64, maxPair int64, boundary bool, pe int, a *mem.Arena) Matching {
	g := sg.Local
	n := g.NumNodes()
	owned := sg.NumOwned
	m := NewEmpty(n)
	rt := rating.NewRater(rf, g)

	// Phase 1: the sequential phase on the owned nodes, a ghost labelled by
	// its owner PE — never this one — so that only owned–owned edges are
	// internal. localRating[lv] is the rating of owned node lv's match, 0
	// when unmatched: carried out of the sequential phase, then kept by the
	// rounds as they dissolve and adopt matches.
	nodes, owner := make([]int32, owned), make([]int32, n)
	for i := range nodes {
		nodes[i], owner[i] = int32(i), sg.PE
	}
	copy(owner[owned:], sg.GhostOwner)
	localRating := make([]float64, owned)
	// Not the shared path's edge pool: a pooled level-0 array stays resident
	// between the levels and ops it is reused by, and here it bought no time.
	var edges []Edge
	localPhase(g, rt, alg, rng.NewStream(seed, uint64(pe)), nodes, owner, sg.PE, &edges, m, localRating, maxPair, a)

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

	crossMatched := make([]bool, n)
	ghostRating := make([]float64, sg.NumGhosts())
	ghostFinal := make([]bool, sg.NumGhosts())
	prop := make([]int32, owned)    // this round's proposal target (ghost local id), -1 = none
	propR := make([]float64, owned) // and its rating

	// Phase 2: iterated boundary rounds. Every PE executes the same superstep
	// sequence per round (state exchange, proposal exchange, termination
	// vote) even when it owns no boundary nodes, so the Transport stays in
	// lockstep across PEs — including PEs with empty subgraphs.
	for round := 0; ; round++ {
		// 2a: publish boundary state to the PEs holding each node as ghost.
		stateOut := make([][]dist.Msg, ex.PEs())
		for _, lv := range bnodes {
			msg := dist.Msg{Kind: dist.MsgGhostState, A: sg.ToGlobal(lv), R: localRating[lv]}
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
				mine := localRating[lv]
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
					prop[lv], propR[lv] = best, bestR
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
				m[old], localRating[old] = -1, 0
			}
			m[lb], m[la] = la, lb
			localRating[lb] = propR[lb]
			crossMatched[lb] = true
			progress = true
		}

		if !dist.AllReduceOr(ex, pe, progress) {
			break
		}
	}
	return m
}
