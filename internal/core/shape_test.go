package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/part"
)

// TestFewerPEsThanBlocksCostNoQuality checks a shape of the results rather
// than pinned bytes: running k = 8 blocks on 2 PEs must cut about as well as
// running them on 8, and every run must be feasible (each block within
// Lmax = (1+ε)·W/k + max node weight).
//
// The tolerance comes from ten seeds (1–10) at pes 8: the per-seed log cut
// has a standard deviation of at most 0.112 (rgg:13; delaunay:12 reads
// 0.072), so the log ratio of two six-seed geometric means spreads by
// 0.112·√(2/6) ≈ 0.065, and two of those allow a ratio of e^0.13 ≈ 1.14
// either way. Measured: rgg:13 423.6 at pes 2 vs 412.7 at pes 8 (1.03),
// delaunay:12 483.9 vs 497.4 (0.97). A stop rule whose floor counted PEs
// alone coarsened pes 2 to five nodes per block and read 1.60 and 1.86.
func TestFewerPEsThanBlocksCostNoQuality(t *testing.T) {
	const k, seeds, tolerance = 8, 6, 1.14
	for _, spec := range []string{"rgg:13", "delaunay:12"} {
		g, err := gen.FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		var gm [2]float64
		for i, pes := range []int{2, k} {
			var logSum float64
			for seed := uint64(1); seed <= seeds; seed++ {
				cfg, err := ConfigFromNames("fast", k, 0.03, seed, pes, 0, "auto", "")
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(context.Background(), g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if p := part.FromBlocks(g, k, cfg.Eps, res.Blocks); !p.Feasible() {
					t.Errorf("%s pes=%d seed=%d: balance %.4f exceeds Lmax", spec, pes, seed, p.Imbalance())
				}
				logSum += math.Log(float64(res.Cut))
			}
			gm[i] = math.Exp(logSum / seeds)
		}
		if r := gm[0] / gm[1]; r > tolerance || r < 1/tolerance {
			t.Errorf("%s k=%d: geometric-mean cut %.1f at pes 2 vs %.1f at pes %d (ratio %.2f, tolerance %.2f)", spec, k, gm[0], gm[1], k, r, tolerance)
		}
	}
}
