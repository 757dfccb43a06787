package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/rating"
)

// TestWeightRatingNotCatastrophic is a regression guard for the
// cluster-weight cap: without it, the plain weight rating (all ties on
// unit-weight inputs) lets GPA's global heaviest-first matching snowball a
// single cluster, and final cuts blow up by an order of magnitude instead of
// the paper's ~9%. With the cap, weight must stay within 2x of expansion*2.
func TestWeightRatingNotCatastrophic(t *testing.T) {
	g := gen.DelaunayX(13, 5)
	run := func(rf rating.Func) int64 {
		var total int64
		for s := uint64(0); s < 2; s++ {
			cfg := NewConfig(Fast, 16)
			cfg.Rating = rf
			cfg.Seed = s
			total += mustRun(t, g, cfg).Cut
		}
		return total
	}
	weight := run(rating.Weight)
	exp2 := run(rating.ExpansionStar2)
	if weight > 2*exp2 {
		t.Fatalf("weight rating catastrophically worse: %d vs %d", weight, exp2)
	}
}

// TestEndToEndAllFamilies partitions one instance of every benchmark family
// with every variant and checks validity and feasibility — the integration
// surface of the whole pipeline.
func TestEndToEndAllFamilies(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"rgg", gen.RGG(10, 1), 8},
		{"delaunay", gen.DelaunayX(10, 2), 8},
		{"grid3d", gen.Grid3D(10, 10, 10), 8},
		{"road", gen.Road(4000, 4, 3), 4},
		{"social", gen.PrefAttach(3000, 4, 4), 4},
		{"banded", gen.Banded(3000, 8, 20, 0.5, 5), 4},
	}
	for _, tc := range cases {
		for _, v := range []Variant{Minimal, Fast, Strong} {
			cfg := NewConfig(v, tc.k)
			cfg.Seed = 9
			res := mustRun(t, tc.g, cfg)
			p := part.FromBlocks(tc.g, tc.k, cfg.Eps, res.Blocks)
			if err := p.Validate(); err != nil {
				t.Errorf("%s %v: %v", tc.name, v, err)
			}
			if !p.Feasible() {
				t.Errorf("%s %v: infeasible (%.3f)", tc.name, v, p.Imbalance())
			}
		}
	}
}
