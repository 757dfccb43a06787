package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/refine"
	"repro/internal/rng"
)

// This file implements the extensions §8 sketches as future work: refining
// an existing partition (the repartitioning building block) and combining
// KaPPa with evolutionary multistart search (the paper cites Soper/Walshaw/
// Cross [24] and expects evolutionary methods to beat plain restarts for
// large k).

// RefineExistingCtx improves a given block assignment without recomputing
// it from scratch: it runs the parallel pairwise refinement of §5 directly on
// the finest graph (no multilevel hierarchy), rebalancing first if the input
// violates the balance constraint. It returns the refined partition and its
// cut; the input slice is not modified. Invalid configurations come back as
// ErrInvalidConfig-wrapped errors, a cancelled context aborts between global
// iterations with ctx.Err(), and WithObserver options receive the
// RefineEvents (there is no hierarchy, so events carry Level 0).
func RefineExistingCtx(ctx context.Context, g *graph.Graph, cfg Config, blocks []int32, opts ...Option) ([]int32, int64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	if len(blocks) != g.NumNodes() {
		return nil, 0, fmt.Errorf("%w: %d blocks for %d nodes", ErrInvalidConfig, len(blocks), g.NumNodes())
	}
	for v, b := range blocks {
		if b < 0 || int(b) >= cfg.K {
			return nil, 0, fmt.Errorf("%w: node %d in block %d, outside [0, %d)", ErrInvalidConfig, v, b, cfg.K)
		}
	}
	pl := NewPipeline(opts...)
	env := &Env{observers: pl.Observers}
	defer env.stopCrew()
	own := append([]int32(nil), blocks...)
	p := part.FromBlocks(g, cfg.K, cfg.Eps, own)
	if !p.Feasible() {
		refine.Rebalance(p, rng.NewStream(cfg.Seed, 0xba1a2))
	}
	if err := refineLevel(ctx, p, &cfg, 0x5eed, 0, env); err != nil {
		return nil, 0, err
	}
	return p.Block, p.Cut(), nil
}

// EvolveResult reports an evolutionary run.
type EvolveResult struct {
	Blocks      []int32
	Cut         int64
	Generations int
	Restarts    int
}

// Evolve runs a small evolutionary multistart search on top of the KaPPa
// pipeline: a population of partitions from independent seeded runs is
// improved over generations by (a) re-refining the current best with fresh
// seeds (mutation) and (b) injecting fresh restarts to keep diversity. The
// best feasible individual survives. With generations == 0 this degenerates
// to plain restarts, so the benchmark harness can compare the two regimes.
// Errors are those of Run and RefineExistingCtx.
func Evolve(ctx context.Context, g *graph.Graph, cfg Config, population, generations int) (EvolveResult, error) {
	if population < 1 {
		population = 1
	}
	type indiv struct {
		blocks []int32
		cut    int64
	}
	run := func(seed uint64) (indiv, error) {
		c := cfg
		c.Seed = seed
		res, err := Run(ctx, g, c)
		return indiv{res.Blocks, res.Cut}, err
	}
	// Initial population: independent restarts, in parallel.
	pop := make([]indiv, population)
	errs := make([]error, population)
	var wg sync.WaitGroup
	for i := range pop {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pop[i], errs[i] = run(cfg.Seed + uint64(i)*0x9e3779b9)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return EvolveResult{}, err
		}
	}
	best := pop[0]
	for _, in := range pop[1:] {
		if in.cut < best.cut {
			best = in
		}
	}
	restarts := population
	for gen := 0; gen < generations; gen++ {
		// Mutation: re-refine the champion with a fresh seed; the pairwise
		// FM's randomized queues explore a different neighborhood each time.
		mcfg := cfg
		mcfg.Seed = cfg.Seed ^ uint64(gen+1)*0xdeadbeef
		mutBlocks, mutCut, err := RefineExistingCtx(ctx, g, mcfg, best.blocks)
		if err != nil {
			return EvolveResult{}, err
		}
		if mutCut < best.cut {
			best = indiv{mutBlocks, mutCut}
		}
		// Immigration: one fresh restart per generation keeps diversity.
		fresh, err := run(cfg.Seed + uint64(population+gen)*0x9e3779b9)
		if err != nil {
			return EvolveResult{}, err
		}
		restarts++
		if fresh.cut < best.cut {
			best = fresh
		}
	}
	return EvolveResult{
		Blocks:      best.blocks,
		Cut:         best.cut,
		Generations: generations,
		Restarts:    restarts,
	}, nil
}
