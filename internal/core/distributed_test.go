package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/part"
)

// TestPartitionDistributedCoarsening runs the full pipeline with PE-local
// coarsening: the result must be a feasible partition, byte-identical across
// repeated runs at a fixed seed, and of comparable quality to shared-memory
// coarsening.
func TestPartitionDistributedCoarsening(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", gen.Grid2D(48, 48)},
		{"rgg", gen.RGG(11, 8)},
		{"delaunay", gen.DelaunayX(11, 9)},
	} {
		const k = 8
		cfg := NewConfig(Fast, k)
		cfg.Seed = 1234
		cfg.Coarsen = CoarsenDistributed
		res := mustRun(t, tc.g, cfg)
		p := part.FromBlocks(tc.g, k, cfg.Eps, res.Blocks)
		if !p.Feasible() {
			t.Errorf("%s: distributed coarsening produced infeasible partition (balance %.4f)", tc.name, p.Imbalance())
		}
		if res.Levels == 0 {
			t.Errorf("%s: no contraction levels built", tc.name)
		}

		res2 := mustRun(t, tc.g, cfg)
		if res2.Cut != res.Cut {
			t.Errorf("%s: cut not deterministic: %d vs %d", tc.name, res.Cut, res2.Cut)
		}
		for v := range res.Blocks {
			if res.Blocks[v] != res2.Blocks[v] {
				t.Fatalf("%s: block of node %d differs across identical runs", tc.name, v)
			}
		}

		shared := cfg
		shared.Coarsen = CoarsenShared
		sres := mustRun(t, tc.g, shared)
		if sres.Cut > 0 && float64(res.Cut) > 1.5*float64(sres.Cut) {
			t.Errorf("%s: distributed cut %d much worse than shared %d", tc.name, res.Cut, sres.Cut)
		}
	}
}
