// Package baseline implements the comparison partitioners of §6.2. The
// original tools are closed binaries from the perspective of this offline
// module, so each baseline reimplements the published algorithmic recipe of
// its namesake:
//
//   - KMetisLike — sequential direct k-way multilevel partitioning in the
//     style of kMetis: SHEM matching on raw edge weights, recursive-bisection
//     initial partitioning on the coarsest graph, and global greedy k-way
//     boundary refinement during uncoarsening.
//   - ParMetisLike — the parallel variant: index-range prepartitioning
//     (ignoring geometry), block-local heavy-edge matching with
//     locally-heaviest cross-boundary matching, a single initial attempt, a
//     single cheap refinement pass per level, and a relaxed balance bound —
//     reproducing parMetis' larger cuts and its tendency to exceed the 3%
//     imbalance (Table 4/5 report balances around 1.047).
//   - ScotchLike — sequential multilevel recursive bisection (the initpart
//     engine applied to the whole input).
//
// The intent is shape fidelity: KaPPa-Strong < KaPPa-Fast < KaPPa-Minimal ≈
// Scotch < kMetis < parMetis in cut, with the reverse ordering in time.
package baseline

import (
	"fmt"
	"time"

	"repro/internal/coarsen"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/initpart"
	"repro/internal/matching"
	"repro/internal/part"
	"repro/internal/rating"
	"repro/internal/refine"
	"repro/internal/rng"
)

// Tool selects a baseline partitioner.
type Tool int

const (
	// KMetisLike is the sequential direct k-way Metis recipe.
	KMetisLike Tool = iota
	// ParMetisLike is the parallel Metis recipe (faster, worse, laxer balance).
	ParMetisLike
	// ScotchLike is sequential multilevel recursive bisection.
	ScotchLike
)

// String returns the display name used in the result tables.
func (t Tool) String() string {
	switch t {
	case KMetisLike:
		return "kmetis"
	case ParMetisLike:
		return "parmetis"
	case ScotchLike:
		return "scotch"
	default:
		return fmt.Sprintf("baseline.Tool(%d)", int(t))
	}
}

// Result reports one baseline run.
type Result struct {
	Blocks  []int32
	Cut     int64
	Balance float64
	Time    time.Duration
}

// Run partitions g into k blocks with the selected baseline.
func Run(g *graph.Graph, k int, eps float64, tool Tool, seed uint64) Result {
	start := time.Now()
	var blocks []int32
	switch tool {
	case ScotchLike:
		blocks = initpart.Partition(g, k, eps, initpart.EngineScotch, seed)
	case KMetisLike:
		blocks = kmetis(g, k, eps, seed)
	case ParMetisLike:
		blocks = parmetis(g, k, eps, seed)
	default:
		//kappa:allow panicfree the Tool enum is validated where flags are parsed
		panic("baseline: unknown tool")
	}
	p := part.FromBlocks(g, k, eps, blocks)
	return Result{
		Blocks:  blocks,
		Cut:     p.Cut(),
		Balance: p.Imbalance(),
		Time:    time.Since(start),
	}
}

// kmetis: SHEM + weight rating coarsening, pMetis-style initial partition,
// greedy k-way refinement at every level.
func kmetis(g *graph.Graph, k int, eps float64, seed uint64) []int32 {
	r := rng.New(seed)
	h := coarsen.NewHierarchy(g)
	threshold := 30 * k
	if threshold < 60 {
		threshold = 60
	}
	maxPair := 3 * g.TotalNodeWeight() / (2 * int64(threshold))
	if maxPair < 2 {
		maxPair = 2
	}
	for h.Coarsest.NumNodes() > threshold {
		cur := h.Coarsest
		rt := rating.NewRater(rating.Weight, cur)
		m := matching.ComputeScratch(cur, rt, matching.SHEM, r, maxPair, nil)
		if m.Size() == 0 {
			break
		}
		cg, f2c := coarsen.Contract(cur, m)
		if cg.NumNodes() > cur.NumNodes()*49/50 {
			break
		}
		h.Push(cg, f2c)
	}
	block := initpart.Partition(h.Coarsest, k, eps, initpart.EnginePMetis, seed+1)
	p := part.FromBlocks(h.Coarsest, k, eps, block)
	refine.KWayGreedy(p, 3, r)
	for li := h.Depth() - 1; li >= 0; li-- {
		block = h.Project(li, p.Block)
		p = part.FromBlocks(h.Levels[li].Fine, k, eps, block)
		refine.KWayGreedy(p, 3, r)
	}
	if !p.Feasible() {
		refine.Rebalance(p, r)
	}
	return p.Block
}

// parmetis: like kmetis but with the cheap parallel pieces and a relaxed
// balance bound (the real tool optimizes for speed and lets the imbalance
// drift toward ~5%).
func parmetis(g *graph.Graph, k int, eps float64, seed uint64) []int32 {
	r := rng.New(seed)
	relaxedEps := eps + 0.02
	h := coarsen.NewHierarchy(g)
	threshold := 30 * k
	if threshold < 60 {
		threshold = 60
	}
	pes := k
	maxPair := 3 * g.TotalNodeWeight() / (2 * int64(threshold))
	if maxPair < 2 {
		maxPair = 2
	}
	for h.Coarsest.NumNodes() > threshold {
		cur := h.Coarsest
		rt := rating.NewRater(rating.Weight, cur)
		// Index-range prepartition regardless of coordinates (parMetis does
		// not use geometry) and distributed heavy-edge matching: block-local
		// SHEM plus cross-boundary matching of locally heaviest edges.
		blocks := dist.IndexRanges(cur.NumNodes(), pes)
		m := matching.ParallelScratch(cur, rt, matching.SHEM, blocks, pes, seed+uint64(h.Depth()), maxPair, nil)
		if m.Size() == 0 {
			break
		}
		cg, f2c := coarsen.Contract(cur, m)
		if cg.NumNodes() > cur.NumNodes()*49/50 {
			break
		}
		h.Push(cg, f2c)
	}
	block := initpart.Partition(h.Coarsest, k, relaxedEps, initpart.EnginePMetis, seed+1)
	p := part.FromBlocks(h.Coarsest, k, relaxedEps, block)
	refine.KWayGreedy(p, 1, r)
	for li := h.Depth() - 1; li >= 0; li-- {
		block = h.Project(li, p.Block)
		p = part.FromBlocks(h.Levels[li].Fine, k, relaxedEps, block)
		refine.KWayGreedy(p, 1, r)
	}
	if !p.Feasible() {
		refine.Rebalance(p, r)
	}
	return p.Block
}
