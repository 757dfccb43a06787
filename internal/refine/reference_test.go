package refine

import (
	"repro/internal/part"
	"repro/internal/rng"
)

// The pair search as it stood before searches learned to stop: the band BFS
// and a second adjacency walk per band node for its gain, and a run loop that
// drains both queues one discarded pop at a time. Kept verbatim (but for the
// Reference suffixes and the presized move buffers) as the differential
// oracle of the fused walk, the early termination and the stuck-pair return.
// It fills its queues with Push, so the kernel's sealed runs are held to
// what the heap alone pops.

// gain computes the current gain of moving band node li to the other block:
// w(v→other) − w(v→own), counting only edges inside the pair (edges to third
// blocks stay cut either way). It also returns w(v→other).
func (s *pairSearch) gain(li int32) (gain, wOther int64) {
	v := s.band[li]
	g := s.p.G
	adj := g.Adj(v)
	ws := g.AdjWeights(v)
	inBand, localID := s.ws.inBand, s.ws.localID
	var wOwn int64
	for i, u := range adj {
		var uSide byte
		if inBand[u] {
			uSide = s.side[localID[u]]
		} else {
			switch part.ViewGet(s.view, u) {
			case s.a:
				uSide = 0
			case s.b:
				uSide = 1
			default:
				continue
			}
		}
		if uSide == s.side[li] {
			wOwn += ws[i]
		} else {
			wOther += ws[i]
		}
	}
	return wOther - wOwn, wOther
}

func buildBandIndexedReference(idx *part.BoundaryIndex, p *part.Partition, ws *Workspace, view []int32, a, b int32, depth int) []int32 {
	band := idx.Seeds(ws.band[:0], view, a, b)
	for _, v := range band {
		ws.inBand[v] = true
	}
	return expandBandReference(p, ws, view, band, depth)
}

func newPairSearchReference(idx *part.BoundaryIndex, p *part.Partition, ws *Workspace, view []int32, a, b int32, cfg TwoWayConfig) *pairSearch {
	depth := cfg.BandDepth
	if depth < 1 {
		depth = 1
	}
	ws.growGlobal(p.G.NumNodes())
	band := buildBandIndexedReference(idx, p, ws, view, a, b, depth)
	ws.growBand(len(band))
	s := &ws.search
	*s = pairSearch{
		p: p, ws: ws, view: view, a: a, b: b,
		band:  band,
		side:  ws.side,
		moved: ws.moved,
		cA:    p.BlockWeight(a),
		cB:    p.BlockWeight(b),
	}
	for li, v := range band {
		ws.localID[v] = int32(li)
		s.moved[li] = false
		if part.ViewGet(view, v) == b {
			s.side[li] = 1
		} else {
			s.side[li] = 0
		}
	}
	for li := range band {
		gain, wOther := s.gain(int32(li))
		ws.gain0[li] = gain
		if s.side[li] == 0 {
			s.cut += wOther
		}
	}
	return s
}

// searchCounts is what a reference run did to its queues.
type searchCounts struct{ pushes, discards, moves int }

func (s *pairSearch) runReference(cfg TwoWayConfig, r *rng.RNG, moves []int32, counts *searchCounts) result {
	n := len(s.band)
	ws := s.ws
	ws.qa.Reset(n)
	ws.qb.Reset(n)
	s.qa, s.qb = &ws.qa, &ws.qb
	perm := ws.perm[:n]
	r.PermInto(perm)
	var sizeA, sizeB int
	for _, li := range perm {
		l := int32(li)
		if s.side[l] == 0 {
			s.qa.Push(l, ws.gain0[l], uint32(r.Uint64()))
			sizeA++
		} else {
			s.qb.Push(l, ws.gain0[l], uint32(r.Uint64()))
			sizeB++
		}
	}
	counts.pushes += n
	minSide := sizeA
	if sizeB < minSide {
		minSide = sizeB
	}
	patienceLimit := int(cfg.Patience * float64(minSide))
	if patienceLimit < 1 {
		patienceLimit = 1
	}

	res := result{moves: moves[:0], imbalance: s.imbalance(), cut: s.cut}
	startCut := res.cut
	startCA, startCB := s.cA, s.cB
	fruitless := 0
	alternateNext := byte(0)

	for !s.qa.Empty() || !s.qb.Empty() {
		q := s.chooseQueue(cfg.Strategy, alternateNext, r)
		alternateNext = 1 - alternateNext
		if q == nil {
			break
		}
		li, g := q.PopMax()
		v := s.band[li]
		w := s.p.G.NodeWeight(v)
		var from, to *int64
		if s.side[li] == 0 {
			from, to = &s.cA, &s.cB
		} else {
			from, to = &s.cB, &s.cA
		}
		if *to+w > s.p.Lmax() && !(*from > s.p.Lmax() && *to+w < *from) {
			counts.discards++
			continue // discard: infeasible move
		}
		*from -= w
		*to += w
		s.side[li] = 1 - s.side[li]
		s.moved[li] = true
		s.cut -= g
		res.moves = append(res.moves, li)
		counts.moves++
		adj := s.p.G.Adj(v)
		wts := s.p.G.AdjWeights(v)
		inBand, localID := ws.inBand, ws.localID
		for i, u := range adj {
			if !inBand[u] {
				continue
			}
			ul := localID[u]
			if s.moved[ul] {
				continue
			}
			delta := 2 * wts[i]
			if s.side[ul] == s.side[li] {
				delta = -delta
			}
			s.qa.AdjustBy(ul, delta)
			s.qb.AdjustBy(ul, delta)
		}
		imb := s.imbalance()
		if imb < res.imbalance || (imb == res.imbalance && s.cut < res.cut) {
			res.imbalance, res.cut = imb, s.cut
			res.bestLen = len(res.moves)
			fruitless = 0
		} else {
			fruitless++
			if fruitless > patienceLimit {
				break
			}
		}
	}

	for _, li := range res.moves {
		s.side[li] = 1 - s.side[li]
		s.moved[li] = false
	}
	s.cA, s.cB = startCA, startCB
	s.cut = startCut
	return res
}

// refinePairReference is RefinePairIndexed over the reference search. It
// leaves the applied move prefix in ws.applied, like the kernel.
func refinePairReference(ws *Workspace, idx *part.BoundaryIndex, p *part.Partition, view []int32, a, b int32, cfg TwoWayConfig, seedA, seedB uint64) (RefinePairOutcome, searchCounts) {
	var counts searchCounts
	ws.applied = ws.applied[:0]
	s := newPairSearchReference(idx, p, ws, view, a, b, cfg)
	if len(s.band) == 0 {
		return RefinePairOutcome{}, counts
	}
	ws.rng.Seed(seedA)
	r1 := s.runReference(cfg, &ws.rng, ws.movesA, &counts)
	ws.rng.Seed(seedB)
	r2 := s.runReference(cfg, &ws.rng, ws.movesB, &counts)
	best := r1
	if r2.imbalance < best.imbalance || (r2.imbalance == best.imbalance && r2.cut < best.cut) {
		best = r2
	}
	applied := ws.applied
	shared := &s.view[0] == &p.Block[0]
	for _, li := range best.moves[:best.bestLen] {
		v := s.band[li]
		to := s.b
		if s.side[li] == 1 {
			to = s.a
		}
		p.Move(v, to)
		if !shared {
			part.ViewSet(s.view, v, to)
		}
		applied = append(applied, v)
	}
	ws.applied = applied
	idx.Patch(view, a, b, applied)
	out := RefinePairOutcome{
		Gain:     s.cut - best.cut,
		Moves:    best.bestLen,
		BandSize: len(s.band),
	}
	s.release()
	return out, counts
}
