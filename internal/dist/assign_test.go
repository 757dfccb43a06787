package dist

import (
	"testing"

	"repro/internal/gen"
)

// TestAssignGrid3DUsesRCB closes the former 2D-only gap: a Grid3D instance
// carries 3D coordinates, so the auto and rcb strategies must run real
// geometric bisection — visibly better edge locality than the index-range
// fallback the instance used to get — and still balance node counts.
func TestAssignGrid3DUsesRCB(t *testing.T) {
	g := gen.Grid3D(6, 12, 24) // anisotropic: the widest axis is z
	const pes = 8
	rcb := Assign(g, StrategyAuto, pes)
	ranges := weightedRangesInto(make([]int32, g.NumNodes()), g.NodeWeights(), pes)

	if lr, lg := EdgeLocality(g, rcb), EdgeLocality(g, ranges); lr < lg {
		t.Fatalf("RCB locality %.4f worse than ranges %.4f", lr, lg)
	}
	if im := Imbalance(g, rcb, pes); im > 1.05 {
		t.Fatalf("RCB imbalance %.4f", im)
	}

	// The first bisection must cut the z axis (extent 24 vs 6 and 12): the
	// two PE groups {0..3} and {4..7} separate along z.
	z := g.Coords()[2]
	maxLow, minHigh := -1.0, 1e18
	for v, pe := range rcb {
		if pe < 4 {
			if z[v] > maxLow {
				maxLow = z[v]
			}
		} else if z[v] < minHigh {
			minHigh = z[v]
		}
	}
	if maxLow > minHigh {
		t.Fatalf("first cut not on z: max z of low group %.1f > min z of high group %.1f", maxLow, minHigh)
	}
}
