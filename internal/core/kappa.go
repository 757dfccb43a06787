package core

import (
	"context"
	"time"

	"repro/internal/coarsen"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/initpart"
	"repro/internal/matching"
	"repro/internal/mem"
	"repro/internal/par"
	"repro/internal/part"
	"repro/internal/rating"
	"repro/internal/refine"
	"repro/internal/rng"
)

// Result reports a finished partitioning run.
type Result struct {
	Blocks  []int32
	Cut     int64
	Balance float64 // max block weight / average block weight
	Levels  int     // contraction levels built

	CoarsenTime time.Duration
	InitTime    time.Duration
	RefineTime  time.Duration
	TotalTime   time.Duration
}

// LevelSeed is the matching seed of contraction level level in a run seeded
// with seed. Every multi-PE level kernel — shared, in-process distributed,
// and the jobs a coordinator ships — seeds its matching with it, which is
// what keeps their partitions byte-identical.
func LevelSeed(seed uint64, level int) uint64 {
	return seed + uint64(level)*101
}

// sharedLevel performs one contraction level on the shared global graph:
// parallel (or, with one PE, sequential) matching followed by a global
// two-pass contraction, both batches on run and drawing scratch from a. It
// reports the wall-clock of each kernel for the level's LevelEvent. Returns
// (nil, nil, ...) when the matching comes out empty.
func sharedLevel(run *par.Crew, cur *graph.Graph, cfg *Config, blocks []int32, pes, level int, maxPair int64, a *mem.Arena) (*graph.Graph, []int32, time.Duration, time.Duration) {
	tm := time.Now()
	rt := rating.NewRaterOn(run, cfg.Rating, cur)
	var m matching.Matching
	if pes > 1 {
		// The prepartition (§3.3) localizes matching work onto PEs; the
		// strategy does not influence the final partition directly.
		m = matching.Parallel(run, cur, rt, cfg.Matcher, blocks, pes, LevelSeed(cfg.Seed, level), maxPair, cfg.GapMatching, a)
	} else {
		m = matching.ComputeScratch(cur, rt, cfg.Matcher, rng.NewStream(cfg.Seed, uint64(level)), maxPair, a)
	}
	matchT := time.Since(tm)
	if m.Size() == 0 {
		a.PutInt32([]int32(m))
		return nil, nil, matchT, 0
	}
	tc := time.Now()
	cg, f2c := coarsen.ContractWith(cur, m, coarsen.Options{Workers: run.Members(), Arena: a, Crew: run})
	a.PutInt32([]int32(m))
	return cg, f2c, matchT, time.Since(tc)
}

// DistributedLevel performs one contraction level PE-locally (§3) with every
// PE of t a goroutine of this process: extract per-PE subgraphs with ghost
// layers, match each subgraph's internal edges sequentially, resolve the
// boundary by mutual proposals over the Transport supersteps, number every
// PE's coarse nodes, and contract the level by the resulting map
// (coarsen.ContractDistributed). It reports the matching and contraction
// kernel times
// (extraction counts toward matching, the way the paper accounts the ghost
// setup). Returns (nil, nil, ...) when the matching comes out empty. It is
// the one in-process level kernel: `-coarsen distributed` runs it per level,
// and internal/remote's coordinator runs it when it has no workers left.
// scratch holds one arena per PE for the matching temporaries (nil allocates
// fresh). The extraction and the stitch are batches on run; the superstep
// kernels between them put every PE on a goroutine of its own.
func DistributedLevel(run *par.Crew, cur *graph.Graph, cfg *Config, blocks []int32, t dist.Transport, level int, maxPair int64, scratch []*mem.Arena) (*graph.Graph, []int32, time.Duration, time.Duration) {
	tm := time.Now()
	sgs := dist.ExtractAllOn(run, cur, blocks, t.PEs())
	ms := matching.DistributedScratch(sgs, t, cfg.Rating, cfg.Matcher,
		LevelSeed(cfg.Seed, level), maxPair, cfg.GapMatching, scratch)
	matchT := time.Since(tm)
	matched := false
	for _, m := range ms {
		if m.Size() > 0 {
			matched = true
			break
		}
	}
	if !matched {
		return nil, nil, matchT, 0
	}
	tc := time.Now()
	cg, f2c := coarsen.ContractDistributed(run, cur, sgs, ms, t)
	return cg, f2c, matchT, time.Since(tc)
}

// initialPartition runs the sequential initial partitioner cfg.InitRepeats
// times concurrently with different seeds and adopts the best result (§4).
func initialPartition(g *graph.Graph, cfg *Config) ([]int32, int64) {
	return initpart.Repeat(g, cfg.K, cfg.Eps, cfg.InitEngine, cfg.InitRepeats, cfg.Seed^0x1217)
}

// refineLevel performs the nested refinement loops of §5 on one level:
// global iterations step through the pair schedule; each scheduled pair runs
// up to cfg.LocalIter local iterations of two-way FM, each local search done
// twice with different seeds and the better result adopted. levelSeed
// derives the level's random streams; level names the level in RefineEvents
// (uncoarsening steps done: 0 = coarsest graph). The context is checked
// before every global iteration. The level owns the run's boundary index,
// rebuilt here: the schedule reads its quotient, every pair draws its band
// seeds from the lists of its two blocks and patches them with its moves.
// A round of more than one pair, and the rows of the quotient graph, are
// batches on the run's crew, the caller claiming beside the helpers.
func refineLevel(ctx context.Context, p *part.Partition, cfg *Config, levelSeed uint64, level int, env *Env) error {
	if cfg.K < 2 {
		return nil
	}
	idx := &env.boundary
	idx.Reset(env.crew, p, p.Block, -1, -1)
	r := round{
		p:     p,
		idx:   idx,
		fm:    refine.TwoWayConfig{Strategy: cfg.Strategy, Patience: cfg.Patience, BandDepth: cfg.BandDepth},
		local: cfg.LocalIter,
		check: env.indexCheck,
	}
	// Every crew member owns one of the run's FM workspaces.
	members := env.crew.Members()
	workspaces := env.workspacesFor(members)
	refinePair := func(member, i int) { r.refine(workspaces[member], i) }
	fruitlessRuns := 0
	for global := 0; global < cfg.MaxGlobalIter; global++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		q := idx.QuotientOn(env.crew)
		rounds := schedule(q, cfg, levelSeed, global)
		var totalGain int64
		for ri, class := range rounds {
			if len(class) == 0 {
				continue
			}
			// Disjoint pairs refine concurrently; all reads of foreign
			// blocks go through a snapshot taken before the round. The
			// snapshot and per-pair gain table are arena scratch.
			r.view = env.Arena.Int32(len(p.Block))
			copy(r.view, p.Block)
			r.class, r.gains = class, env.Arena.Int64(len(class))
			r.seed = cfg.Seed ^ levelSeed<<32 ^ uint64(global)<<16 ^ uint64(ri)<<8
			if env.claimOrder != nil {
				env.claimOrder(class)
			}
			env.crew.Run(len(class), refinePair)
			if env.indexCheck != nil {
				env.indexCheck(idx, p, p.Block, -1, -1)
			}
			for _, gv := range r.gains {
				totalGain += gv
			}
			env.Arena.PutInt64(r.gains)
			env.Arena.PutInt32(r.view)
		}
		env.Emit(RefineEvent{Level: level, Iteration: global, Gain: totalGain})
		if totalGain > 0 {
			fruitlessRuns = 0
			continue
		}
		fruitlessRuns++
		if cfg.StopOnNoChange == 0 || fruitlessRuns >= cfg.StopOnNoChange {
			break
		}
	}
	return nil
}

// round is one colour class of one global iteration, ready to refine: what a
// pair's refinement needs besides its position in the class. A pair's seeds
// depend on the level, the iteration, the round and the pair, never on who
// refines it or when.
type round struct {
	p     *part.Partition
	idx   *part.BoundaryIndex
	view  []int32 // snapshot of p.Block taken before the round
	class []part.QEdge
	gains []int64 // per pair of the class, written by whoever refined it
	fm    refine.TwoWayConfig
	local int    // cfg.LocalIter
	seed  uint64 // of (run, level, global iteration, round)
	check func(idx *part.BoundaryIndex, p *part.Partition, view []int32, a, b int32)
}

// refine runs the local iterations of pair i of the class on ws.
func (r *round) refine(ws *refine.Workspace, i int) {
	a, b := r.class[i].A, r.class[i].B
	base := r.seed ^ uint64(a)<<24 ^ uint64(b)
	var gain int64
	for li := 0; li < r.local; li++ {
		out := refine.RefinePairIndexed(ws, r.idx, r.p, r.view, a, b, r.fm,
			splitSeed(base, uint64(2*li)), splitSeed(base, uint64(2*li+1)))
		gain += out.Gain
		if r.check != nil {
			r.check(r.idx, r.p, r.view, a, b)
		}
		if out.Gain <= 0 {
			break
		}
	}
	r.gains[i] = gain
}

// schedule produces the rounds of block pairs for one global iteration from
// the quotient graph q: the colour classes of a distributed edge colouring
// (§5.1; the paper found random maximal matchings slightly worse).
func schedule(q []part.QEdge, cfg *Config, levelSeed uint64, global int) [][]part.QEdge {
	seed := cfg.Seed ^ 0xc01035<<8 ^ levelSeed<<40 ^ uint64(global)
	colors, nc := part.DistributedColoring(cfg.K, q, seed)
	return part.ColorClasses(q, colors, nc)
}

// splitSeed derives independent seeds deterministically.
func splitSeed(base, i uint64) uint64 {
	x := base + (i+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return x
}
