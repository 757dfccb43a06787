package repro_test

import (
	"context"
	"fmt"

	"repro"
)

// ExampleDistribute shows the graph-distribution layer on its own: compare
// the edge locality of the two strategies on a structured grid, pick one
// for the partitioner, and extract per-PE subgraphs with ghost layers.
func ExampleDistribute() {
	g := repro.Grid2D(32, 32)
	const pes = 16

	for _, s := range []repro.Distribution{repro.DistRanges, repro.DistRCB} {
		assign := repro.Distribute(g, s, pes)
		fmt.Printf("%-6s locality=%.2f imbalance=%.2f\n",
			s, repro.EdgeLocality(g, assign), repro.DistImbalance(g, assign, pes))
	}

	// Use a specific strategy inside the full pipeline.
	cfg := repro.NewConfig(repro.Fast, pes)
	cfg.Distribution = repro.DistRCB
	cfg.Seed = 42
	res, err := repro.Run(context.Background(), g, cfg)
	fmt.Println("feasible partition:", err == nil && res.Cut > 0)

	// Extract each PE's local subgraph plus halo.
	assign := repro.Distribute(g, repro.DistRCB, pes)
	subs := repro.ExtractSubgraphs(g, assign, pes)
	owned := 0
	for _, s := range subs {
		owned += s.NumOwned
	}
	fmt.Println("owned nodes across PEs:", owned == g.NumNodes())

	// Output:
	// ranges locality=0.76 imbalance=1.00
	// rcb    locality=0.90 imbalance=1.00
	// feasible partition: true
	// owned nodes across PEs: true
}
