package refine

import (
	"cmp"
	"slices"

	"repro/internal/part"
	"repro/internal/pq"
	"repro/internal/rng"
)

// KWayGreedy performs rounds of greedy k-way boundary refinement in the
// style of kMetis: boundary nodes are kept in a single global priority queue
// keyed by the best gain over all adjacent blocks; positive-gain feasible
// moves are applied until the queue is exhausted. It returns the total cut
// improvement. This is the *global* local search the paper contrasts with
// its pairwise scheme (§7, §8).
func KWayGreedy(p *part.Partition, rounds int, r *rng.RNG) int64 {
	var total int64
	for round := 0; round < rounds; round++ {
		gained := kwayPass(p, r)
		total += gained
		if gained == 0 {
			break
		}
	}
	return total
}

// bestMove returns the most profitable adjacent target block for v and its
// gain (target −1 when v has no foreign neighbors), ties going to the lower
// block id. It does not test the balance constraint: its callers check that
// the target can take v.
func bestMove(p *part.Partition, v int32) (int32, int64) {
	g := p.G
	own := p.Block[v]
	adj := g.Adj(v)
	ws := g.AdjWeights(v)
	var wOwn int64
	conn := make(map[int32]int64, 4)
	for i, u := range adj {
		if bu := p.Block[u]; bu == own {
			wOwn += ws[i]
		} else {
			conn[bu] += ws[i]
		}
	}
	best, bestGain := int32(-1), int64(0)
	first := true
	for b, w := range conn {
		gain := w - wOwn
		if first || gain > bestGain || (gain == bestGain && b < best) {
			best, bestGain = b, gain
			first = false
		}
	}
	return best, bestGain
}

func kwayPass(p *part.Partition, r *rng.RNG) int64 {
	n := p.G.NumNodes()
	q := pq.NewGainQueue(n)
	target := make([]int32, n)
	for _, v := range p.BoundaryNodes() {
		t, gain := bestMove(p, v)
		if t >= 0 {
			target[v] = t
			q.Push(v, gain, uint32(r.Uint64()))
		}
	}
	var total int64
	for !q.Empty() {
		v, _ := q.PopMax()
		// Gains go stale as neighbors move; recompute before applying.
		t, gain := bestMove(p, v)
		if t < 0 || gain <= 0 {
			continue
		}
		w := p.G.NodeWeight(v)
		if p.BlockWeight(t)+w > p.Lmax() {
			continue
		}
		p.Move(v, t)
		total += gain
		for _, u := range p.G.Adj(v) {
			if q.Contains(u) {
				continue
			}
			ut, ugain := bestMove(p, u)
			if ut >= 0 && ugain > 0 {
				target[u] = ut
				q.Push(u, ugain, uint32(r.Uint64()))
			}
		}
	}
	return total
}

// Rebalance moves nodes out of overloaded blocks until the balance
// constraint holds (or no improving move exists). Each pass scans the
// boundary once, collects candidate relocations out of overloaded blocks,
// and applies them in order of decreasing gain while the source remains
// overloaded; a fallback pass relocates arbitrary nodes of still-overloaded
// blocks to the lightest feasible block.
func Rebalance(p *part.Partition, r *rng.RNG) {
	lightest := func() int32 {
		light := int32(0)
		for b := int32(1); b < int32(p.K); b++ {
			if p.BlockWeight(b) < p.BlockWeight(light) {
				light = b
			}
		}
		return light
	}
	type cand struct {
		v    int32
		to   int32
		gain int64
	}
	for pass := 0; pass < 64; pass++ {
		if p.Feasible() {
			return
		}
		var cands []cand
		for _, v := range p.BoundaryNodes() {
			if p.BlockWeight(p.Block[v]) <= p.Lmax() {
				continue
			}
			if t, gain := bestMove(p, v); t >= 0 {
				cands = append(cands, cand{v, t, gain})
			}
		}
		// By gain only: equal gains keep the order pdqsort leaves them in.
		// A total order (gain, then node) would be the better contract, but
		// it changes which equal-gain node moves first and with it the cuts
		// the benchmark pins.
		slices.SortFunc(cands, func(a, b cand) int { return cmp.Compare(b.gain, a.gain) })
		moved := false
		for _, c := range cands {
			if p.BlockWeight(p.Block[c.v]) <= p.Lmax() {
				continue // source repaired by earlier moves
			}
			if p.BlockWeight(c.to)+p.G.NodeWeight(c.v) <= p.Lmax() {
				p.Move(c.v, c.to)
				moved = true
			}
		}
		if moved {
			continue
		}
		// Fallback: cut-oblivious relocation to the lightest block. Needed
		// when an overloaded block has no feasible boundary target (e.g. a
		// block holding the whole graph).
		for v := int32(0); v < int32(p.G.NumNodes()); v++ {
			b := p.Block[v]
			if p.BlockWeight(b) <= p.Lmax() {
				continue
			}
			t := lightest()
			if t != b && p.BlockWeight(t)+p.G.NodeWeight(v) <= p.Lmax() {
				p.Move(v, t)
				moved = true
			}
		}
		if !moved {
			return
		}
	}
}
