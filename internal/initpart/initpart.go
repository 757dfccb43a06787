// Package initpart implements the initial partitioning phase of §4. The
// paper hands the coarsest graph to Scotch or pMetis, run simultaneously on
// all PEs with different seeds, and broadcasts the best result. Since those
// tools are external binaries, this package provides two built-in sequential
// multilevel recursive-bisection engines that play their roles:
//
//   - EngineScotch: GPA matching with the expansion*2 rating, best-of-many
//     greedy graph growing, and TopGain FM refinement at every level — the
//     high-quality engine (our "Scotch").
//   - EnginePMetis: SHEM matching with the plain weight rating, a single
//     growing attempt, and Alternate FM — the faster, cruder engine (our
//     "pMetis", measured ~5% worse, matching the paper's 4.7% observation).
//
// One Partition call is k−1 multilevel bisections of ever smaller graphs, so
// it keeps one bisector — an arena for every temporary, one FM workspace, one
// growing queue — and threads it through the recursion.
package initpart

import (
	"sync"

	"repro/internal/coarsen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mem"
	"repro/internal/part"
	"repro/internal/pq"
	"repro/internal/rating"
	"repro/internal/refine"
	"repro/internal/rng"
)

// Engine selects the initial-partitioning engine.
type Engine int

const (
	// EngineScotch is the high-quality recursive bisection engine.
	EngineScotch Engine = iota
	// EnginePMetis is the faster, lower-quality engine.
	EnginePMetis
)

// String names the engine after the tool it stands in for.
func (e Engine) String() string {
	if e == EnginePMetis {
		return "pmetis-like"
	}
	return "scotch-like"
}

type engineParams struct {
	matcher    matching.Algorithm
	rate       rating.Func
	growTries  int
	fmStrategy refine.Strategy
	fmPasses   int
	fmPatience float64
}

func (e Engine) params() engineParams {
	if e == EnginePMetis {
		return engineParams{
			matcher: matching.SHEM, rate: rating.Weight,
			growTries: 1, fmStrategy: refine.Alternate, fmPasses: 1, fmPatience: 0.05,
		}
	}
	return engineParams{
		matcher: matching.GPA, rate: rating.ExpansionStar2,
		growTries: 4, fmStrategy: refine.TopGain, fmPasses: 3, fmPatience: 0.25,
	}
}

// Partition computes a k-way partition of g with allowed imbalance eps,
// using recursive multilevel bisection. The result respects the Lmax bound
// of §2 whenever the rebalancing fallback succeeds (always, in practice).
func Partition(g *graph.Graph, k int, eps float64, engine Engine, seed uint64) []int32 {
	return partition(g, k, eps, engine, seed).Block
}

// partition is Partition returning the partition itself, whose cut and
// feasibility Repeat ranks attempts by.
func partition(g *graph.Graph, k int, eps float64, engine Engine, seed uint64) *part.Partition {
	if k < 1 {
		//kappa:allow panicfree k is validated by Config.Validate before the pipeline runs
		panic("initpart: k must be >= 1")
	}
	s := newBisector(engine.params(), eps, seed)
	out := make([]int32, g.NumNodes())
	ids := make([]int32, g.NumNodes())
	for i := range ids {
		ids[i] = int32(i)
	}
	s.recursiveBisect(g, ids, k, 0, out)
	// The per-bisection bounds compose only approximately; repair any
	// residual overload against the global Lmax.
	p := part.FromBlocks(g, k, eps, out)
	if !p.Feasible() {
		refine.Rebalance(p, s.r)
	}
	return p
}

// Repeat runs Partition `repeats` times concurrently with different seeds
// (§4: initial partitioning runs on all PEs simultaneously, each with a
// different seed, and is itself repeated) and returns the block array of the
// best feasible result — by (feasible, cut) — together with its cut.
func Repeat(g *graph.Graph, k int, eps float64, engine Engine, repeats int, seed uint64) ([]int32, int64) {
	if repeats < 1 {
		repeats = 1
	}
	type attempt struct {
		block    []int32
		cut      int64
		feasible bool
	}
	results := make([]attempt, repeats)
	// One goroutine per attempt, not a batch on a run's crew: the attempts
	// are equal in length, so time-sliced on two processors three of them
	// take 1.5 attempts' time, while claimed by two members they take two.
	var wg sync.WaitGroup
	for i := 0; i < repeats; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := partition(g, k, eps, engine, seed+uint64(i)*0x9e37)
			results[i] = attempt{p.Block, p.Cut(), p.Feasible()}
		}(i)
	}
	wg.Wait()
	best := 0
	for i := 1; i < repeats; i++ {
		a, b := results[i], results[best]
		if (a.feasible && !b.feasible) || (a.feasible == b.feasible && a.cut < b.cut) {
			best = i
		}
	}
	return results[best].block, results[best].cut
}

// bisector is what one Partition call reuses across its bisections: the
// random stream they draw from in recursion order, an arena for every
// temporary of matching, contraction, growing, projection and splitting
// (a bisection's arrays are no larger than its parent's, so the first one
// sizes them all), the FM workspace with its one-shot boundary index, the
// growing queue and the row sorter of graph.Graph.Split.
type bisector struct {
	params engineParams
	eps    float64
	r      *rng.RNG
	a      *mem.Arena
	ws     *refine.Workspace
	q      pq.GainQueue
	rows   graph.RowSorter
}

func newBisector(params engineParams, eps float64, seed uint64) *bisector {
	return &bisector{params: params, eps: eps, r: rng.New(seed), a: mem.NewArena(), ws: refine.NewWorkspace()}
}

// recursiveBisect assigns blocks [offset, offset+k) to the nodes of sub
// (whose node i is original node new2old[i]), writing into out.
func (s *bisector) recursiveBisect(sub *graph.Graph, new2old []int32, k int, offset int32, out []int32) {
	if k == 1 {
		for _, ov := range new2old {
			out[ov] = offset
		}
		return
	}
	k1 := (k + 1) / 2
	targetA := sub.TotalNodeWeight() * int64(k1) / int64(k)
	side := s.multilevelBisect(sub, targetA)
	ensureMinCounts(sub, side, k1, k-k1)
	old, local := s.a.Int32(sub.NumNodes()), s.a.Int32(sub.NumNodes())
	subA, subB := sub.Split(side, local, &s.rows)
	// old lists the original ids of side 0's nodes, then side 1's.
	nA := subA.NumNodes()
	for v, sd := range side {
		at := local[v]
		if sd == 1 {
			at += int32(nA)
		}
		old[at] = new2old[v]
	}
	s.a.PutInt32(local)
	s.a.PutBytes(side)
	s.recursiveBisect(subA, old[:nA], k1, offset, out)
	s.recursiveBisect(subB, old[nA:], k-k1, offset+int32(k1), out)
	s.a.PutInt32(old)
}

// ensureMinCounts guarantees that side 0 has at least k1 nodes and side 1 at
// least k2, so that the recursion below can fill every block. When a side is
// short, the lightest nodes of the other side are flipped over; this only
// triggers on tiny graphs or degenerate weight distributions.
func ensureMinCounts(sub *graph.Graph, side []byte, k1, k2 int) {
	counts := [2]int{}
	for _, s := range side {
		counts[s]++
	}
	flip := func(from, to byte, need int) {
		// Flip the lightest `need` nodes of side `from`.
		type cand struct {
			v int32
			w int64
		}
		var cands []cand
		for v, s := range side {
			if s == from {
				cands = append(cands, cand{int32(v), sub.NodeWeight(int32(v))})
			}
		}
		for i := 0; i < need && len(cands) > 0; i++ {
			best := 0
			for j := 1; j < len(cands); j++ {
				if cands[j].w < cands[best].w {
					best = j
				}
			}
			side[cands[best].v] = to
			cands[best] = cands[len(cands)-1]
			cands = cands[:len(cands)-1]
		}
	}
	if counts[0] < k1 {
		flip(1, 0, k1-counts[0])
	} else if counts[1] < k2 {
		flip(0, 1, k2-counts[1])
	}
}

// multilevelBisect bisects g into sides 0/1 with side-0 target weight
// targetA: coarsen, grow a bisection on the coarsest graph, then project and
// refine level by level. The sides come back in an arena array the caller
// returns.
func (s *bisector) multilevelBisect(g *graph.Graph, targetA int64) []byte {
	h := s.hierarchy(g)
	side := s.growBisection(h.Coarsest, targetA)
	block := s.a.Int32(len(side))
	for v, sd := range side {
		block[v] = int32(sd)
	}
	s.a.PutBytes(side)
	s.refineBisection(h.Coarsest, block, targetA)
	for h.Depth() > 0 {
		fine := s.a.Int32(h.Finer().NumNodes())
		level := h.Uncoarsen(block, fine)
		s.a.PutInt32(block)
		block = fine
		s.refineBisection(level, block, targetA)
	}
	out := s.a.Bytes(len(block))
	for v, b := range block {
		out[v] = byte(b)
	}
	s.a.PutInt32(block)
	return out
}

// hierarchy coarsens g for one bisection down to a graph small enough to
// grow on, stopping early, by the pipeline's rule, once a level stops
// shrinking geometrically: on a hub graph a matching leaves most nodes
// unmatched, and a level that removes a handful of them buys nothing but one
// more round of FM on an almost unchanged graph.
func (s *bisector) hierarchy(g *graph.Graph) *coarsen.Hierarchy {
	const coarseEnough = 120
	h := coarsen.NewHierarchy(g)
	maxPair := max(g.TotalNodeWeight()/4, 2)
	for h.Coarsest.NumNodes() > coarseEnough {
		rt := rating.NewRater(s.params.rate, h.Coarsest)
		m := matching.ComputeScratch(h.Coarsest, rt, s.params.matcher, s.r, maxPair, s.a)
		if m.Size() == 0 {
			s.a.PutInt32([]int32(m))
			break
		}
		cg, f2c := coarsen.ContractWith(h.Coarsest, m, coarsen.Options{Arena: s.a})
		s.a.PutInt32([]int32(m))
		if !h.Shrinks(cg) {
			break
		}
		h.Push(cg, f2c)
	}
	return h
}

// refineBisection runs two-way FM between the sides. The balance bound is
// the larger side's target within (1+eps). The passes share one boundary
// index, built once and kept current by each pass's moves.
func (s *bisector) refineBisection(g *graph.Graph, block []int32, targetA int64) {
	p := part.FromBlocks(g, 2, s.eps, block)
	targetB := g.TotalNodeWeight() - targetA
	maxTarget := targetA
	if targetB > maxTarget {
		maxTarget = targetB
	}
	p.SetLmax(int64((1+s.eps)*float64(maxTarget)) + g.MaxNodeWeight())
	cfg := refine.TwoWayConfig{Strategy: s.params.fmStrategy, Patience: s.params.fmPatience, BandDepth: 1 << 30}
	idx := s.ws.PairIndex(p, p.Block, 0, 1)
	for pass := 0; pass < s.params.fmPasses; pass++ {
		out := refine.RefinePairIndexed(s.ws, idx, p, p.Block, 0, 1, cfg, s.r.Uint64(), s.r.Uint64())
		if out.Gain <= 0 && pass > 0 {
			break
		}
	}
}

// growBisection grows side 0 from a random seed node by repeatedly absorbing
// the frontier node with the highest gain (greedy graph growing) until the
// target weight is reached; the best of the engine's tries by resulting cut
// is returned, in an arena array the caller returns.
func (s *bisector) growBisection(g *graph.Graph, targetA int64) []byte {
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	r, q := s.r, &s.q
	best, side := s.a.Bytes(n), s.a.Bytes(n)
	var bestCut int64 = -1
	for attempt := 0; attempt < s.params.growTries; attempt++ {
		for i := range side {
			side[i] = 1
		}
		q.Reset(n)
		var grown int64
		add := func(v int32) {
			side[v] = 0
			grown += g.NodeWeight(v)
			q.Remove(v)
			adj := g.Adj(v)
			ws := g.AdjWeights(v)
			for i, u := range adj {
				if side[u] == 0 {
					continue
				}
				// gain of absorbing u = w(u→grown) − w(u→rest)
				delta := 2 * ws[i]
				if q.Contains(u) {
					q.AdjustBy(u, delta)
				} else {
					q.Push(u, delta-g.WeightedDegree(u), uint32(r.Uint64()))
				}
			}
		}
		add(int32(r.Intn(n)))
		for grown < targetA {
			if q.Empty() {
				// Disconnected: restart growth from a random ungrown node.
				v := int32(-1)
				start := r.Intn(n)
				for i := 0; i < n; i++ {
					u := int32((start + i) % n)
					if side[u] == 1 {
						v = u
						break
					}
				}
				if v < 0 {
					break
				}
				add(v)
				continue
			}
			v, _ := q.PopMax()
			add(v)
		}
		var cut int64
		for v := int32(0); v < int32(n); v++ {
			ws := g.AdjWeights(v)
			for i, u := range g.Adj(v) {
				if u > v && side[u] != side[v] {
					cut += ws[i]
				}
			}
		}
		if bestCut < 0 || cut < bestCut {
			bestCut = cut
			best, side = side, best
		}
	}
	s.a.PutBytes(side)
	return best
}
