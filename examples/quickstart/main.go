// Quickstart: build a graph, partition it with KaPPa-Fast, inspect the
// result. This is the smallest end-to-end use of the public API: repro.Run
// with a context, an error check, and an optional progress observer.
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro"
)

func main() {
	// Build a small weighted graph by hand: two 4-cliques joined by a
	// single light bridge. The obvious bisection cuts only the bridge.
	b := repro.NewBuilder(8)
	for c := int32(0); c < 2; c++ {
		base := 4 * c
		for i := base; i < base+4; i++ {
			for j := i + 1; j < base+4; j++ {
				b.AddEdge(i, j, 10)
			}
		}
	}
	b.AddEdge(3, 4, 1) // the bridge
	g := b.Build()

	cfg := repro.NewConfig(repro.Fast, 2)
	cfg.Seed = 42
	res, err := repro.Run(context.Background(), g, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
	fmt.Printf("n=%d m=%d  cut=%d  balance=%.3f\n",
		g.NumNodes(), g.NumEdges(), res.Cut, res.Balance)
	fmt.Printf("blocks: %v\n", res.Blocks)
	if res.Cut == 1 {
		fmt.Println("found the bridge: only the light edge is cut")
	}

	// The same partitioner scales to generated instances; here a 2^14-node
	// random geometric graph into 16 blocks with the Strong preset, under a
	// deadline and with typed trace events streamed as it works.
	rgg := repro.RGG(14, 7)
	cfg = repro.NewConfig(repro.Strong, 16)
	cfg.Seed = 7
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err = repro.Run(ctx, rgg, cfg,
		repro.WithObserver(repro.ObserverFunc(func(ev repro.TraceEvent) {
			if _, ok := ev.(repro.PhaseEvent); ok {
				fmt.Println("  ", ev)
			}
		})))
	if err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
	cut, bal, feasible := repro.Evaluate(rgg, 16, cfg.Eps, res.Blocks)
	fmt.Printf("rgg14 k=16: cut=%d balance=%.3f feasible=%v time=%v\n",
		cut, bal, feasible, res.TotalTime.Round(1e6))
}
