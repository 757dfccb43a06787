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
package initpart

import (
	"sync"

	"repro/internal/coarsen"
	"repro/internal/graph"
	"repro/internal/matching"
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
	if k < 1 {
		//kappa:allow panicfree k is validated by Config.Validate before the pipeline runs
		panic("initpart: k must be >= 1")
	}
	r := rng.New(seed)
	out := make([]int32, g.NumNodes())
	params := engine.params()
	recursiveBisect(g, identity(g.NumNodes()), k, 0, eps, params, r, out)
	// The per-bisection bounds compose only approximately; repair any
	// residual overload against the global Lmax.
	p := part.FromBlocks(g, k, eps, out)
	if !p.Feasible() {
		refine.Rebalance(p, r)
	}
	return p.Block
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
	var wg sync.WaitGroup
	for i := 0; i < repeats; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			block := Partition(g, k, eps, engine, seed+uint64(i)*0x9e37)
			p := part.FromBlocks(g, k, eps, block)
			results[i] = attempt{block, p.Cut(), p.Feasible()}
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

func identity(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// recursiveBisect assigns blocks [offset, offset+k) to the nodes of sub
// (whose node i is original node new2old[i]), writing into out.
func recursiveBisect(sub *graph.Graph, new2old []int32, k int, offset int32, eps float64, params engineParams, r *rng.RNG, out []int32) {
	if k == 1 {
		for _, ov := range new2old {
			out[ov] = offset
		}
		return
	}
	k1 := (k + 1) / 2
	targetA := sub.TotalNodeWeight() * int64(k1) / int64(k)
	side := multilevelBisect(sub, targetA, eps, params, r)
	ensureMinCounts(sub, side, k1, k-k1)
	keepA := make([]bool, sub.NumNodes())
	for v, s := range side {
		keepA[v] = s == 0
	}
	subA, mapA := sub.Subgraph(keepA)
	for i := range keepA {
		keepA[i] = !keepA[i]
	}
	subB, mapB := sub.Subgraph(keepA)
	oldA := make([]int32, len(mapA))
	for i, v := range mapA {
		oldA[i] = new2old[v]
	}
	oldB := make([]int32, len(mapB))
	for i, v := range mapB {
		oldB[i] = new2old[v]
	}
	recursiveBisect(subA, oldA, k1, offset, eps, params, r, out)
	recursiveBisect(subB, oldB, k-k1, offset+int32(k1), eps, params, r, out)
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
// refine level by level.
func multilevelBisect(g *graph.Graph, targetA int64, eps float64, params engineParams, r *rng.RNG) []byte {
	const coarseEnough = 120
	h := coarsen.NewHierarchy(g)
	maxPair := g.TotalNodeWeight() / 4
	if maxPair < 2 {
		maxPair = 2
	}
	for h.Coarsest.NumNodes() > coarseEnough {
		rt := rating.NewRater(params.rate, h.Coarsest)
		m := matching.ComputeScratch(h.Coarsest, rt, params.matcher, r, maxPair, nil)
		if m.Size() == 0 {
			break
		}
		cg, f2c := coarsen.Contract(h.Coarsest, m)
		if cg.NumNodes() >= h.Coarsest.NumNodes() {
			break
		}
		h.Push(cg, f2c)
	}

	side := growBisection(h.Coarsest, targetA, params.growTries, r)
	block := make([]int32, len(side))
	for v, s := range side {
		block[v] = int32(s)
	}
	// One FM workspace serves every pass on every level of this bisection.
	ws := refine.NewWorkspace()
	refineBisection(ws, h.Coarsest, block, targetA, eps, params, r)
	for li := h.Depth() - 1; li >= 0; li-- {
		block = h.Project(li, block)
		refineBisection(ws, h.Levels[li].Fine, block, targetA, eps, params, r)
	}
	out := make([]byte, len(block))
	for v, b := range block {
		out[v] = byte(b)
	}
	return out
}

// refineBisection runs two-way FM between the sides. The balance bound is
// the larger side's target within (1+eps). The passes share one boundary
// index, built once and kept current by each pass's moves.
func refineBisection(ws *refine.Workspace, g *graph.Graph, block []int32, targetA int64, eps float64, params engineParams, r *rng.RNG) {
	p := part.FromBlocks(g, 2, eps, block)
	targetB := g.TotalNodeWeight() - targetA
	maxTarget := targetA
	if targetB > maxTarget {
		maxTarget = targetB
	}
	p.SetLmax(int64((1+eps)*float64(maxTarget)) + g.MaxNodeWeight())
	cfg := refine.TwoWayConfig{Strategy: params.fmStrategy, Patience: params.fmPatience, BandDepth: 1 << 30}
	idx := ws.PairIndex(p, p.Block, 0, 1)
	for pass := 0; pass < params.fmPasses; pass++ {
		out := refine.RefinePairIndexed(ws, idx, p, p.Block, 0, 1, cfg, r.Uint64(), r.Uint64())
		if out.Gain <= 0 && pass > 0 {
			break
		}
	}
}

// growBisection grows side 0 from a random seed node by repeatedly absorbing
// the frontier node with the highest gain (greedy graph growing) until the
// target weight is reached; the best of `tries` attempts by resulting cut is
// returned.
func growBisection(g *graph.Graph, targetA int64, tries int, r *rng.RNG) []byte {
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	var best []byte
	var bestCut int64 = -1
	for attempt := 0; attempt < tries; attempt++ {
		side := make([]byte, n)
		for i := range side {
			side[i] = 1
		}
		q := pq.NewGainQueue(n)
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
		blocks := make([]int32, n)
		for v, s := range side {
			blocks[v] = int32(s)
		}
		cut := part.FromBlocks(g, 2, 0.03, blocks).Cut()
		if bestCut < 0 || cut < bestCut {
			bestCut = cut
			best = side
		}
	}
	return best
}
