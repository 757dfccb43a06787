package repro_test

import (
	"context"
	"fmt"
	"time"

	"repro"
)

// ExampleRun is the recommended entry point: a context that can cancel the
// run (deadline, Ctrl-C, ...), an error instead of a panic on bad input,
// and optional functional options — here an Observer counting the typed
// trace events the pipeline emits while it works.
func ExampleRun() {
	g := repro.Grid2D(32, 32)
	cfg := repro.NewConfig(repro.Fast, 8) // KaPPa-Fast, k = 8
	cfg.Seed = 42

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	levels, refineIters := 0, 0
	obs := repro.ObserverFunc(func(ev repro.TraceEvent) {
		switch ev.(type) {
		case repro.LevelEvent:
			levels++ // one per pushed contraction level: nodes/edges/time
		case repro.RefineEvent:
			refineIters++ // one per global refinement iteration: gain
		}
	})

	res, err := repro.Run(ctx, g, cfg, repro.WithObserver(obs))
	if err != nil {
		fmt.Println("run failed:", err)
		return
	}
	cut, _, feasible := repro.Evaluate(g, 8, cfg.Eps, res.Blocks)
	fmt.Println("feasible:", feasible, "cut agrees:", cut == res.Cut)
	fmt.Println("observed levels:", levels == res.Levels)
	fmt.Println("observed refinement:", refineIters > 0)

	// Invalid configurations surface as errors, never panics:
	bad := cfg
	bad.K = 0
	if _, err := repro.Run(ctx, g, bad); err != nil {
		fmt.Println("bad config rejected:", err != nil)
	}

	// Output:
	// feasible: true cut agrees: true
	// observed levels: true
	// observed refinement: true
	// bad config rejected: true
}
