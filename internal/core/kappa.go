package core

import (
	"context"
	"errors"
	"slices"
	"sync"
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
	"repro/internal/wire"
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
	cg, f2c := coarsen.ContractWith(cur, m, coarsen.Options{Workers: run.Members(), Arena: a, Crew: run, Blocks: blocks, PEs: pes})
	a.PutInt32([]int32(m))
	return cg, f2c, matchT, time.Since(tc)
}

// DistributedLevel performs one contraction level PE-locally (§3) with every
// PE of t a goroutine of this process: extract the per-PE subgraphs with
// ghost layers, run PELevel on each, and contract the level by their parts
// (StitchLevel). It reports the matching and contraction kernel times, the
// extraction counted toward matching the way the paper accounts the ghost
// setup. Returns (nil, nil, ...) when no PE matched. It is the one in-process
// level kernel: `-coarsen distributed` runs it per level, and
// internal/remote's coordinator runs it for a level it folds and once it has
// no workers left. scratch holds one arena per PE for the matching
// temporaries (nil allocates fresh). The extraction and the stitch are
// batches on run.
//
// The PE kernels are one goroutine per PE, not a batch on run: they meet at
// the transport's barriers every superstep, and a crew smaller than the PE
// count would leave a PE unclaimed while the others wait for it there. Every
// other goroutine-per-PE runner (matching.DistributedBounded, a worker
// hosting several PEs) is one for the same reason.
//
//kappa:invariant PELevel's parts are ids of the level it contracts; parts that crossed a process boundary are refused by StitchLevel instead
func DistributedLevel(run *par.Crew, cur *graph.Graph, cfg *Config, blocks []int32, t dist.Transport, level int, maxPair int64, scratch []*mem.Arena) (*graph.Graph, []int32, time.Duration, time.Duration) {
	tx := time.Now()
	sgs := dist.ExtractAllOn(run, cur, blocks, t.PEs())
	extractT := time.Since(tx)
	assign := wire.Assign{Rating: int(cfg.Rating), Matcher: int(cfg.Matcher), Boundary: cfg.GapMatching}
	results := make([]wire.Result, len(sgs))
	var wg sync.WaitGroup
	for pe, sg := range sgs {
		var a *mem.Arena
		if scratch != nil {
			a = scratch[pe]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[pe] = PELevel(t, assign, wire.Job{Level: level, Seed: LevelSeed(cfg.Seed, level), MaxPair: maxPair, Shard: sg}, a)
		}()
	}
	wg.Wait()
	cg, f2c, matchT, contractT, err := StitchLevel(run, cur, results)
	if err != nil {
		panic(err.Error())
	}
	return cg, f2c, extractT + matchT, contractT
}

// PELevel is one PE's side of a distributed level, the superstep sequence
// every PE runs, whether a goroutine of DistributedLevel or a worker process
// (kappa worker) serving the job over a socket: match the shard
// (matching.MatchSubgraph), vote over t on whether any PE matched, and, if
// one did, number this PE's coarse nodes (coarsen.ContractSubgraph). Every PE
// reaches the vote's verdict, so either all contract, keeping their superstep
// sequences aligned, or none does. The result is what a worker ships: the
// part (nil when no PE matched) and the kernels' times. The matching draws
// its temporaries from a (nil = allocate), which no other PE's kernel may
// use at the same time.
func PELevel(t dist.Transport, assign wire.Assign, job wire.Job, a *mem.Arena) wire.Result {
	pe := int(job.Shard.PE)
	start := time.Now()
	m := matching.MatchSubgraph(job.Shard, t, rating.Func(assign.Rating), matching.Algorithm(assign.Matcher), job.Seed, job.MaxPair, assign.Boundary, pe, a)
	result := wire.Result{PE: pe, Matched: m.Size(), MatchNanos: time.Since(start).Nanoseconds()}
	if !dist.AllReduceOr(t, pe, result.Matched > 0) {
		return result
	}
	start = time.Now()
	result.Part = coarsen.ContractSubgraph(job.Shard, m, t, pe)
	result.ContractNanos = time.Since(start).Nanoseconds()
	return result
}

// StitchLevel is the coordinator's tail of a distributed level, wherever its
// PEs ran: given every PE's result, ordered by PE, it reports whether any PE
// matched — (nil, nil, ...) when none did — and else contracts cur by their
// parts (coarsen.StitchChecked) on run. The matching time is the slowest
// PE's, the contraction time the slowest PE's plus the stitch. A part that
// does not fit the level, or a PE that sent none when one matched, is a
// *coarsen.PartError naming the PE.
func StitchLevel(run *par.Crew, cur *graph.Graph, results []wire.Result) (*graph.Graph, []int32, time.Duration, time.Duration, error) {
	var matchNanos, contractNanos int64
	matched := false
	for _, r := range results {
		matched = matched || r.Matched > 0
		matchNanos = max(matchNanos, r.MatchNanos)
		contractNanos = max(contractNanos, r.ContractNanos)
	}
	if !matched {
		return nil, nil, time.Duration(matchNanos), 0, nil
	}
	parts := make([]*coarsen.PEContraction, len(results))
	for pe, r := range results {
		if r.Part == nil {
			return nil, nil, 0, 0, &coarsen.PartError{PE: pe, Err: errors.New("no contraction for a level that matched")}
		}
		parts[pe] = r.Part
	}
	ts := time.Now()
	cg, f2c, err := coarsen.StitchChecked(run, cur, parts)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	return cg, f2c, time.Duration(matchNanos), time.Duration(contractNanos) + time.Since(ts), nil
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
// rebuilt here: every global iteration regroups its rows, the schedule reads
// its quotient, every pair draws its band seeds from the lists of its two
// blocks and patches them with its moves.
// A global iteration's pairs (see pairBatch) and the rows of the quotient
// graph are batches on the run's crew, the caller claiming beside the
// helpers. It returns p's cut after the level without scanning for it: the
// first quotient graph's total weight less every iteration's gain, which the
// pair searches count exactly.
func refineLevel(ctx context.Context, p *part.Partition, cfg *Config, levelSeed uint64, level int, env *Env) (int64, error) {
	if cfg.K < 2 {
		return 0, nil
	}
	idx := &env.boundary
	idx.Reset(env.crew, p, p.Block, -1, -1)
	// Pairs read foreign blocks through a snapshot of p.Block, arena
	// scratch, in which every pair keeps its own moves: taken once, it stays
	// p.Block for the whole level.
	view := env.Arena.Int32(len(p.Block))
	defer env.Arena.PutInt32(view)
	copy(view, p.Block)
	pb := &env.pairs
	pb.p, pb.idx, pb.view, pb.local = p, idx, view, cfg.LocalIter
	pb.fm = refine.TwoWayConfig{Strategy: cfg.Strategy, Patience: cfg.Patience, BandDepth: cfg.BandDepth}
	pb.check, pb.order = env.indexCheck, env.claimOrder
	// Every crew member owns one of the run's FM workspaces.
	workspaces := env.workspacesFor(env.crew.Members())
	work := func(member, _ int) int { return pb.refineNext(workspaces[member]) }
	fruitlessRuns := 0
	var cut int64
	for global := 0; global < cfg.MaxGlobalIter; global++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if !env.fullRows {
			idx.Regroup(env.crew)
		}
		q := idx.QuotientOn(env.crew)
		if global == 0 {
			for _, e := range q {
				cut += e.W
			}
		}
		ready := pb.plan(schedule(q, cfg, levelSeed, global), cfg.K,
			cfg.Seed^levelSeed<<32^uint64(global)<<16)
		env.crew.RunChained(len(pb.pairs), ready, work)
		if env.indexCheck != nil {
			env.indexCheck(idx, p, p.Block, -1, -1, refine.RefinePairOutcome{})
		}
		cut -= pb.gain
		env.Emit(RefineEvent{Level: level, Iteration: global, Gain: pb.gain, Cut: cut})
		if pb.gain > 0 {
			fruitlessRuns = 0
			continue
		}
		fruitlessRuns++
		if cfg.StopOnNoChange == 0 || fruitlessRuns >= cfg.StopOnNoChange {
			break
		}
	}
	return cut, nil
}

// pairBatch is one global iteration's pairs as one chained crew batch: the
// colour classes of the schedule joined in colour order, where a pair is free
// to start once the previous pair of each of its two blocks has finished; the
// crew hands out a task as each pair comes free, and every task takes the
// lowest-numbered free pair. A pair touches only its own two blocks' nodes,
// weights, boundary lists and bounds, and tests a foreign node only for being
// in one of them, which only the earlier pairs of its two blocks can change.
// So every pair sees the state that running the colour classes one after
// another gives it, whoever refines it and whatever runs beside it, and its
// seeds name the level, the iteration, its colour and the pair. The slices
// are scratch every level and iteration reuses.
type pairBatch struct {
	p     *part.Partition
	idx   *part.BoundaryIndex
	view  []int32 // see refineLevel
	fm    refine.TwoWayConfig
	local int // cfg.LocalIter
	check func(idx *part.BoundaryIndex, p *part.Partition, view []int32, a, b int32, out refine.RefinePairOutcome)
	order func(free []int) int // see Env.claimOrder

	pairs []part.QEdge
	seeds []uint64 // per pair: of (run, level, iteration, colour, pair)
	waits []int8   // per pair: its earlier pairs still to finish, 0 when free, -1 once claimed
	seen  []bool   // per block: it has a pair yet; plan's scratch
	free  []int    // order's argument

	mu    sync.Mutex // guards waits, first and gain
	first int        // every pair before it is claimed
	gain  int64      // of the finished pairs
}

// plan lays out one global iteration — the colour classes in colour order,
// each pair waiting for the earlier pairs of its two blocks — and returns how
// many pairs are free at once. seed is the iteration's.
func (pb *pairBatch) plan(classes [][]part.QEdge, k int, seed uint64) (ready int) {
	pb.pairs, pb.seeds, pb.waits = pb.pairs[:0], pb.seeds[:0], pb.waits[:0]
	pb.seen = slices.Grow(pb.seen[:0], k)[:k]
	clear(pb.seen)
	for c, class := range classes {
		for _, e := range class {
			var waits int8
			for _, b := range [2]int32{e.A, e.B} {
				if pb.seen[b] {
					waits++
				}
				pb.seen[b] = true
			}
			if waits == 0 {
				ready++
			}
			pb.pairs = append(pb.pairs, e)
			pb.seeds = append(pb.seeds, seed^uint64(c)<<8^uint64(e.A)<<24^uint64(e.B))
			pb.waits = append(pb.waits, waits)
		}
	}
	pb.first, pb.gain = 0, 0
	return ready
}

// refineNext is one task of the batch, on ws: it claims the lowest-numbered
// free pair — or the one order picks among the free pairs — refines it, and
// returns how many pairs its finishing freed. The crew hands out a task for
// every pair that is free, so there is one to claim.
func (pb *pairBatch) refineNext(ws *refine.Workspace) int {
	pb.mu.Lock()
	for pb.waits[pb.first] < 0 {
		pb.first++
	}
	i := pb.first + slices.Index(pb.waits[pb.first:], 0)
	if pb.order != nil {
		pb.free = pb.free[:0]
		for j := i; j < len(pb.pairs); j++ {
			if pb.waits[j] == 0 {
				pb.free = append(pb.free, j)
			}
		}
		i = pb.free[pb.order(pb.free)]
	}
	pb.waits[i] = -1
	pb.mu.Unlock()
	gain := pb.refine(ws, i)
	pb.mu.Lock()
	defer pb.mu.Unlock()
	pb.gain += gain
	freed := 0
	for _, b := range [2]int32{pb.pairs[i].A, pb.pairs[i].B} {
		for j := i + 1; j < len(pb.pairs); j++ { // the next pair of block b
			if e := pb.pairs[j]; e.A == b || e.B == b {
				if pb.waits[j]--; pb.waits[j] == 0 {
					freed++
				}
				break
			}
		}
	}
	return freed
}

// refine runs the local iterations of pair i on ws and returns their gain.
func (pb *pairBatch) refine(ws *refine.Workspace, i int) int64 {
	a, b := pb.pairs[i].A, pb.pairs[i].B
	var gain int64
	for li := 0; li < pb.local; li++ {
		out := refine.RefinePairIndexed(ws, pb.idx, pb.p, pb.view, a, b, pb.fm,
			splitSeed(pb.seeds[i], uint64(2*li)), splitSeed(pb.seeds[i], uint64(2*li+1)))
		gain += out.Gain
		if pb.check != nil {
			pb.check(pb.idx, pb.p, pb.view, a, b, out)
		}
		if out.Gain <= 0 {
			break
		}
	}
	return gain
}

// schedule produces the block pairs of one global iteration from the
// quotient graph q: the colour classes of a distributed edge colouring (§5.1;
// the paper found random maximal matchings slightly worse).
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
