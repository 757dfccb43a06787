package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"strconv"
	"time"

	"repro/internal/coarsen"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/par"
	"repro/internal/part"
	"repro/internal/refine"
	"repro/internal/rng"
)

// ErrInvalidConfig wraps every configuration error returned by Run, so
// callers can distinguish user mistakes (usage errors, exit code 2 in
// cmd/kappa) from runtime failures: errors.Is(err, ErrInvalidConfig).
var ErrInvalidConfig = errors.New("core: invalid configuration")

// Distributor assigns every node of g to one of pes PEs — the
// prepartitioning stage of §3.3, consulted once per contraction level. The
// default consults cfg.Distribution (RCB/ranges).
type Distributor interface {
	Distribute(ctx context.Context, g *graph.Graph, cfg *Config, pes int) ([]int32, error)
}

// Coarsener builds the contraction hierarchy of §3. The default runs
// matching-based contraction — shared-memory or PE-local over the Transport,
// per cfg.Coarsen — until the stop rule of §4 fires, and emits one
// LevelEvent per pushed level.
type Coarsener interface {
	Coarsen(ctx context.Context, g *graph.Graph, cfg *Config, env *Env) (*coarsen.Hierarchy, error)
}

// InitialPartitioner partitions the coarsest graph (§4). The default runs
// the sequential initial partitioner cfg.InitRepeats times concurrently and
// adopts the best result.
type InitialPartitioner interface {
	InitialPartition(ctx context.Context, g *graph.Graph, cfg *Config, env *Env) (blocks []int32, cut int64, err error)
}

// Refiner lifts the initial partition through the hierarchy and improves it
// (§5). The default runs parallel pairwise FM scheduled by an edge coloring
// of the quotient graph and emits one RefineEvent per global iteration.
type Refiner interface {
	Refine(ctx context.Context, h *coarsen.Hierarchy, initial []int32, cfg *Config, env *Env) (*part.Partition, error)
}

// Env is what the Pipeline hands every stage besides the graph and config:
// the cross-stage collaborators (node distributor, the run's scratch arena)
// and the trace sink.
type Env struct {
	Distributor Distributor
	// Arena is the run's scratch arena: every level of coarsening and of
	// refinement borrows its temporaries here, so the V-cycle
	// allocates its working set once at the finest level and reuses it all
	// the way down and back up. nil degrades to fresh allocations.
	Arena *mem.Arena

	observers []Observer
	stats     *dist.TransportStats
	peScratch []*mem.Arena        // see scratchFor
	refineWS  []*refine.Workspace // see workspacesFor
	crew      *par.Crew           // see Crew; stopped before the run returns
	boundary  part.BoundaryIndex  // reset by every refinement level, storage reused
	pairs     pairBatch           // planned by every global iteration, storage reused
	// refined is the partition the default Refiner returned, and
	// refinedCut its cut as refinement and the final rebalance kept it: Run
	// reports it instead of scanning the finest level again.
	refined    *part.Partition
	refinedCut int64

	// indexCheck is nil outside tests. refineLevel calls it on the pair's
	// goroutine after every local iteration of a pair, with that pair's
	// blocks, the level's view and the iteration's outcome, and after every
	// global iteration with a = b = -1, the partition's own block array and
	// a zero outcome — the points at which the boundary index's invariants
	// must hold for the pair's two lists and for all of them.
	indexCheck func(idx *part.BoundaryIndex, p *part.Partition, view []int32, a, b int32, out refine.RefinePairOutcome)
	// fullRows is false outside tests. Set, refineLevel never groups the
	// boundary index's rows, and every pair reads its rows in full.
	fullRows bool
	// claimOrder is nil outside tests. A crew member claiming a pair hands
	// it the free pairs of the batch in schedule order, under the batch's
	// lock, and claims the one at the position it returns instead of the
	// first.
	claimOrder func(free []int) int
}

// scratchFor returns the run's scratch arenas for distributed coarsening,
// one per PE, made on first use and reused by every level. They are apart
// from Arena so that a level's PE kernels, which run side by side, do not
// contend for one free list. The coarsening loop calls it between levels.
func (e *Env) scratchFor(pes int) []*mem.Arena {
	for len(e.peScratch) < pes {
		e.peScratch = append(e.peScratch, mem.NewArena())
	}
	return e.peScratch[:pes]
}

// workspacesFor returns the run's FM workspaces, one per refinement worker,
// made on first use and reused across pairs, levels and global iterations.
// refineLevel calls it before its first batch.
func (e *Env) workspacesFor(workers int) []*refine.Workspace {
	for len(e.refineWS) < workers {
		e.refineWS = append(e.refineWS, refine.NewWorkspace())
	}
	return e.refineWS[:workers]
}

// Crew returns the run's crew: every pass of the run that splits into
// independent tasks is a batch on it, and a stage of another package hands
// it to the kernels it calls. nil outside a run.
func (e *Env) Crew() *par.Crew { return e.crew }

// Emit delivers ev to every attached Observer, in attachment order.
func (e *Env) Emit(ev TraceEvent) {
	for _, o := range e.observers {
		o.OnTrace(ev)
	}
}

// transportFor returns the Transport of one level's superstep sequence over
// pes PEs: a channel-backed dist.Exchanger, metered when the run carries
// transport stats (dist.Metered is the identity for nil stats).
func (e *Env) transportFor(pes int) dist.Transport {
	return dist.Metered(dist.NewExchanger(pes), e.stats)
}

// Pipeline is the composable KaPPa runner: four pluggable stages and
// optional Observers for typed progress events. The zero value runs the
// paper's pipeline; newPipeline applies functional options on top of the
// defaults.
//
// Error contract: Run returns ErrInvalidConfig-wrapped errors for bad input,
// the context's error (matching errors.Is(err, context.Canceled) or
// context.DeadlineExceeded) when cancelled, and never panics on user input.
// A fixed Config.Seed makes Run byte-deterministic.
type Pipeline struct {
	Distributor Distributor
	Coarsener   Coarsener
	Initial     InitialPartitioner
	Refiner     Refiner
	Observers   []Observer
	// Stats, when non-nil, receives per-PE transport counters from every
	// superstep of distributed coarsening: the Env's transports are wrapped
	// with dist.Metered. nil (the default) leaves transports unwrapped — the
	// hot path is untouched.
	Stats *dist.TransportStats
	// Arena is the scratch arena runs draw their temporaries from. nil
	// gives every Run a private arena; setting one (WithArena) lets
	// repeated runs — benchmark repetitions, a partitioning service —
	// reuse the same backing buffers across runs. Arenas are safe for
	// concurrent use, including concurrent Runs.
	Arena *mem.Arena
}

// Option configures a Pipeline.
type Option func(*Pipeline)

// WithObserver attaches an Observer; repeated options attach several, all of
// which receive every event in order.
func WithObserver(o Observer) Option {
	return func(p *Pipeline) { p.Observers = append(p.Observers, o) }
}

// WithTransportStats meters every superstep of distributed coarsening into
// s: message and superstep counts and barrier time, per PE. The counters are
// atomic, so s may be scraped (obs.BindTransport) while the run is in
// flight. A nil s is the identity.
func WithTransportStats(s *dist.TransportStats) Option {
	return func(p *Pipeline) { p.Stats = s }
}

// WithArena makes runs draw their scratch buffers (matching candidate
// arrays, contraction member lists and scatter arrays, refinement bands and
// projection ping-pong buffers) from a instead of a run-private arena, so
// repeated runs reuse one working set. Results are byte-identical with and
// without a shared arena.
func WithArena(a *mem.Arena) Option {
	return func(p *Pipeline) { p.Arena = a }
}

// WithDistributor replaces the node-to-PE prepartitioning stage.
func WithDistributor(d Distributor) Option {
	return func(p *Pipeline) { p.Distributor = d }
}

// WithCoarsener replaces the contraction stage.
func WithCoarsener(c Coarsener) Option {
	return func(p *Pipeline) { p.Coarsener = c }
}

// WithInitialPartitioner replaces the initial partitioning stage.
func WithInitialPartitioner(ip InitialPartitioner) Option {
	return func(p *Pipeline) { p.Initial = ip }
}

// WithRefiner replaces the refinement stage.
func WithRefiner(r Refiner) Option {
	return func(p *Pipeline) { p.Refiner = r }
}

// newPipeline returns a Pipeline with the paper's default stages and the
// given options applied.
func newPipeline(opts ...Option) *Pipeline {
	p := &Pipeline{}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Run executes the pipeline with the given options; it is the primary entry
// point of the package. See Pipeline.Run for the error contract.
func Run(ctx context.Context, g *graph.Graph, cfg Config, opts ...Option) (Result, error) {
	return newPipeline(opts...).Run(ctx, g, cfg)
}

// Run executes the full pipeline on g: contraction, initial partitioning,
// multilevel refinement. A nil ctx counts as context.Background(). The
// context is checked between phases, before every contraction level, and
// before every global refinement iteration, so cancellation aborts promptly
// with ctx.Err(); invalid configurations return ErrInvalidConfig-wrapped
// errors instead of panicking.
func (pl *Pipeline) Run(ctx context.Context, g *graph.Graph, cfg Config) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if g == nil {
		return Result{}, fmt.Errorf("%w: nil graph", ErrInvalidConfig)
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	if err := cfg.CheckGraph(g); err != nil {
		return Result{}, err
	}
	if pl.Stats != nil && pl.Stats.PEs() < cfg.NumPEs() {
		return Result{}, fmt.Errorf("%w: transport stats track %d PEs, configuration uses %d",
			ErrInvalidConfig, pl.Stats.PEs(), cfg.NumPEs())
	}
	arena := pl.Arena
	if arena == nil {
		arena = mem.NewArena()
	}
	env := &Env{
		Distributor: pl.Distributor,
		Arena:       arena,
		observers:   pl.Observers,
		stats:       pl.Stats,
		// One crew per run, of min(Workers, GOMAXPROCS) members.
		crew: par.Start(cfg.workers(), par.Spin),
	}
	defer func() { env.crew.Stop() }() // the crew at return: a test hook may swap it
	if env.Distributor == nil {
		env.Distributor = strategyDistributor{arena, env.crew}
	}
	coarsener := pl.Coarsener
	if coarsener == nil {
		coarsener = matchingCoarsener{}
	}
	initial := pl.Initial
	if initial == nil {
		initial = repeatInitialPartitioner{}
	}
	refiner := pl.Refiner
	if refiner == nil {
		refiner = pairwiseRefiner{}
	}

	start := time.Now()

	// Each phase runs under a pprof goroutine label (inherited by every
	// goroutine the phase spawns, and handed to the crew's helpers), so CPU
	// profiles of a run split by stage. A handful of label allocations per
	// run — noise next to a phase.

	// ------ Contraction phase (§3) ------
	tc := time.Now()
	var h *coarsen.Hierarchy
	var err error
	pprof.Do(ctx, pprof.Labels("stage", PhaseCoarsen.String()), func(ctx context.Context) {
		env.crew.Label(ctx)
		h, err = coarsener.Coarsen(ctx, g, &cfg, env)
	})
	if err != nil {
		return Result{}, fmt.Errorf("core: coarsening: %w", err)
	}
	coarsenTime := time.Since(tc)
	env.Emit(PhaseEvent{PhaseCoarsen, coarsenTime})

	// ------ Initial partitioning (§4) ------
	ti := time.Now()
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("core: initial partitioning: %w", err)
	}
	var block []int32
	var cut int64
	pprof.Do(ctx, pprof.Labels("stage", PhaseInit.String()), func(ctx context.Context) {
		env.crew.Label(ctx)
		block, cut, err = initial.InitialPartition(ctx, h.Coarsest, &cfg, env)
	})
	if err != nil {
		return Result{}, fmt.Errorf("core: initial partitioning: %w", err)
	}
	initTime := time.Since(ti)
	env.Emit(InitEvent{Cut: cut, Time: initTime})
	env.Emit(PhaseEvent{PhaseInit, initTime})

	// ------ Refinement phase (§5) ------
	// The default Refiner releases the hierarchy as it climbs: count its
	// levels first.
	levels := h.Depth()
	tr := time.Now()
	var p *part.Partition
	pprof.Do(ctx, pprof.Labels("stage", PhaseRefine.String()), func(ctx context.Context) {
		env.crew.Label(ctx)
		p, err = refiner.Refine(ctx, h, block, &cfg, env)
	})
	if err != nil {
		return Result{}, fmt.Errorf("core: refinement: %w", err)
	}
	refineTime := time.Since(tr)
	env.Emit(PhaseEvent{PhaseRefine, refineTime})

	finalCut := env.refinedCut
	if env.refined != p {
		finalCut = p.Cut()
	}
	res := Result{
		Blocks:      p.Block,
		Cut:         finalCut,
		Balance:     p.Imbalance(),
		Levels:      levels,
		CoarsenTime: coarsenTime,
		InitTime:    initTime,
		RefineTime:  refineTime,
		TotalTime:   time.Since(start),
	}
	env.Emit(PhaseEvent{PhaseTotal, res.TotalTime})
	return res, nil
}

// strategyDistributor is the default Distributor: the strategy selected by
// cfg.Distribution (§3.3) on the run's crew, with scratch and the assignment
// itself borrowed from the run's arena — CoarsenWith hands the assignment
// back once the level's kernel is done with it.
type strategyDistributor struct {
	arena *mem.Arena
	crew  *par.Crew
}

func (d strategyDistributor) Distribute(ctx context.Context, g *graph.Graph, cfg *Config, pes int) ([]int32, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return dist.AssignScratch(d.crew, g, cfg.Distribution, pes, d.arena), nil
}

// LevelKernel performs one contraction level: match cur (with blocks as the
// node-to-PE assignment when PEs > 1, nil otherwise) and contract the
// matching into the next coarser graph. It returns the coarse graph, the
// fine→coarse node map, and the matching/contraction kernel times — or a nil
// graph when the level cannot shrink: its matching is empty, or, for a
// kernel that applies coarsen.Shrinks before contracting, too small.
// CoarsenWith drives a kernel down to a stop threshold; the default kernels
// run in-process, internal/remote's kernel ships each PE its shard and runs
// the level across worker processes, and internal/baseline's runs the Metis
// recipes' matching.
type LevelKernel func(ctx context.Context, cur *graph.Graph, cfg *Config, blocks []int32, level int, maxPair int64) (cg *graph.Graph, f2c []int32, matchT, contractT time.Duration, err error)

// StopRule is KaPPa's contraction stop rule of §4 for an n-node input:
// coarsening ends once at most max(n/(α·k²), 20·max(P, k)) nodes remain —
// the per-PE threshold max(20, n/(αk²)) of the paper summed over PEs. The
// paper runs at least one PE per block; the floor counts blocks as well as
// PEs so that with fewer PEs than blocks the coarsest graph still holds about
// 20 nodes per block, instead of so few that initial partitioning cannot
// balance them and the final rebalance wrecks the cut.
func StopRule(n int, cfg *Config) int {
	return max(int(float64(n)/(cfg.StopAlpha*float64(cfg.K)*float64(cfg.K))), 20*max(cfg.NumPEs(), cfg.K))
}

// CoarsenWith runs the contraction loop of §3/§4 around a per-level kernel
// until at most threshold nodes remain (StopRule for KaPPa's own coarseners)
// or the graph stops shrinking geometrically. It computes the per-level node
// distribution and the cluster-weight cap, and emits one LevelEvent per
// pushed level, so every Coarsener built on it (in-process, out-of-process
// or a baseline recipe) shares the exact same hierarchy policy.
func CoarsenWith(ctx context.Context, g *graph.Graph, cfg *Config, env *Env, threshold int, kernel LevelKernel) (*coarsen.Hierarchy, error) {
	pes := cfg.NumPEs()
	h := coarsen.NewHierarchy(g)
	// Cluster-weight cap (Metis' maxvwgt): no contracted pair may exceed
	// 1.5x the average node weight of the target coarsest graph, so even
	// tie-heavy ratings cannot snowball single clusters into blobs the
	// balance constraint cannot place.
	maxPair := max(3*g.TotalNodeWeight()/(2*int64(threshold)), 2)
	for level := 0; h.Coarsest.NumNodes() > threshold; level++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cur := h.Coarsest
		tl := time.Now()
		var blocks, f2c []int32
		var cg *graph.Graph
		var matchT, contractT time.Duration
		var err error
		pprof.Do(ctx, pprof.Labels("level", strconv.Itoa(level)), func(ctx context.Context) {
			env.crew.Label(ctx)
			if pes > 1 {
				blocks, err = env.Distributor.Distribute(ctx, cur, cfg, pes)
			}
			if err == nil {
				cg, f2c, matchT, contractT, err = kernel(ctx, cur, cfg, blocks, level, maxPair)
			}
		})
		if d, ok := env.Distributor.(strategyDistributor); ok {
			d.arena.PutInt32(blocks)
		}
		if err != nil {
			return nil, err
		}
		if cg == nil {
			break // the level cannot shrink
		}
		// Insist on geometric shrinking; otherwise initial partitioning can
		// handle the rest.
		if !h.Shrinks(cg) {
			break
		}
		h.Push(cg, f2c)
		if cur != g {
			// Only the distributor and contraction read a level's
			// coordinates; the caller's graph and the coarsest one keep
			// theirs.
			cur.DropCoarseningData()
		}
		env.Emit(LevelEvent{
			Level:    h.Depth(),
			Nodes:    cg.NumNodes(),
			Edges:    cg.NumEdges(),
			Time:     time.Since(tl),
			Match:    matchT,
			Contract: contractT,
		})
	}
	return h, nil
}

// matchingCoarsener is the default Coarsener: the CoarsenWith loop around
// the in-process level kernels — shared-memory matching/contraction, or the
// PE-local distributed kernel over an in-process Transport, per cfg.Coarsen.
type matchingCoarsener struct{}

func (matchingCoarsener) Coarsen(ctx context.Context, g *graph.Graph, cfg *Config, env *Env) (*coarsen.Hierarchy, error) {
	pes := cfg.NumPEs()
	return CoarsenWith(ctx, g, cfg, env, StopRule(g.NumNodes(), cfg), func(ctx context.Context, cur *graph.Graph, cfg *Config, blocks []int32, level int, maxPair int64) (*graph.Graph, []int32, time.Duration, time.Duration, error) {
		var cg *graph.Graph
		var f2c []int32
		var matchT, contractT time.Duration
		if pes > 1 && cfg.Coarsen == CoarsenDistributed {
			cg, f2c, matchT, contractT = DistributedLevel(env.crew, cur, cfg, blocks, env.transportFor(pes), level, maxPair, env.scratchFor(pes))
		} else {
			cg, f2c, matchT, contractT = sharedLevel(env.crew, cur, cfg, blocks, pes, level, maxPair, env.Arena)
		}
		return cg, f2c, matchT, contractT, nil
	})
}

// repeatInitialPartitioner is the default InitialPartitioner: cfg.InitRepeats
// concurrent seeded runs of the sequential partitioner, best result adopted.
type repeatInitialPartitioner struct{}

func (repeatInitialPartitioner) InitialPartition(ctx context.Context, g *graph.Graph, cfg *Config, env *Env) ([]int32, int64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	block, cut := initialPartition(g, cfg)
	return block, cut, nil
}

// pairwiseRefiner is the default Refiner: the nested refinement loops of §5
// on every level, coarsest to finest, followed by a rebalancing pass when
// the projected partition violates the balance constraint.
type pairwiseRefiner struct{}

func (pairwiseRefiner) Refine(ctx context.Context, h *coarsen.Hierarchy, initial []int32, cfg *Config, env *Env) (*part.Partition, error) {
	p := part.FromBlocks(h.Coarsest, cfg.K, cfg.Eps, initial)
	cut, err := refineLevel(ctx, p, cfg, 0, 0, env)
	if err != nil {
		return nil, err
	}
	// Uncoarsening projects through ping-ponged arena buffers: each level's
	// block array is recycled once the next-finer projection has read it.
	// Only the finest level allocates fresh — its block array escapes into
	// the Result while the arena lives on for the next run. The coarsest
	// block array is never recycled: it belongs to the InitialPartitioner
	// (whose interface makes no ownership promise), not to this stage.
	// Each step releases the coarse level it climbs from (Uncoarsen).
	depth := h.Depth()
	borrowed := false
	for li := depth - 1; li >= 0; li-- {
		var dst []int32
		if li == 0 {
			dst = make([]int32, h.Finer().NumNodes())
		} else {
			dst = env.Arena.Int32(h.Finer().NumNodes())
		}
		fine := h.Uncoarsen(p.Block, dst)
		if borrowed {
			env.Arena.PutInt32(p.Block)
		}
		borrowed = li > 0
		p = part.FromBlocks(fine, cfg.K, cfg.Eps, dst)
		if cut, err = refineLevel(ctx, p, cfg, uint64(depth-li), depth-li, env); err != nil {
			return nil, err
		}
	}
	env.refined, env.refinedCut = p, rebalance(p, cut, rng.NewStream(cfg.Seed, 0xba1a), depth, env)
	return p, nil
}

// rebalance drains the overloaded blocks of p, whose cut is cut, when it
// violates the balance constraint, and reports the pass as a RebalanceEvent
// at level. It returns p's cut after the pass.
func rebalance(p *part.Partition, cut int64, r *rng.RNG, level int, env *Env) int64 {
	if p.Feasible() {
		return cut
	}
	moved := refine.Rebalance(p, r)
	after := p.Cut()
	env.Emit(RebalanceEvent{Level: level, Moved: moved, CutBefore: cut, CutAfter: after, Feasible: p.Feasible()})
	return after
}
