package core

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/part"
	"repro/internal/rng"
)

// This file implements the extension §8 sketches as future work that the
// repartitioning building block needs: refining an existing partition.

// RefineExistingCtx improves a given block assignment without recomputing
// it from scratch: it runs the parallel pairwise refinement of §5 directly on
// the finest graph (no multilevel hierarchy), rebalancing first if the input
// violates the balance constraint. It returns the refined partition and its
// cut; the input slice is not modified. Invalid configurations come back as
// ErrInvalidConfig-wrapped errors, a cancelled context aborts between global
// iterations with ctx.Err(), and WithObserver options receive the
// RebalanceEvent and the RefineEvents (there is no hierarchy, so events
// carry Level 0).
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
	pl := newPipeline(opts...)
	env := &Env{observers: pl.Observers, crew: par.Start(cfg.workers(), par.Spin)}
	defer func() { env.crew.Stop() }() // the crew at return, as in Pipeline.Run
	own := append([]int32(nil), blocks...)
	p := part.FromBlocks(g, cfg.K, cfg.Eps, own)
	rebalance(p, p.Cut(), rng.NewStream(cfg.Seed, 0xba1a2), 0, env)
	cut, err := refineLevel(ctx, p, &cfg, 0x5eed, 0, env)
	if err != nil {
		return nil, 0, err
	}
	return p.Block, cut, nil
}
