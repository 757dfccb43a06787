package repro

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// scaleEdgeWeights returns g with every edge weight multiplied by c: the same
// CSR rows in the same order, the same node weights and coordinates.
func scaleEdgeWeights(t *testing.T, g *graph.Graph, c int64) *graph.Graph {
	t.Helper()
	n := g.NumNodes()
	xadj := make([]int32, n+1)
	var adj []int32
	var ewgt []int64
	for v := int32(0); v < int32(n); v++ {
		adj = append(adj, g.Adj(v)...)
		for _, w := range g.AdjWeights(v) {
			ewgt = append(ewgt, c*w)
		}
		xadj[v+1] = int32(len(adj))
	}
	s, err := graph.FromCSR(xadj, adj, ewgt, slices.Clone(g.NodeWeights()))
	if err != nil {
		t.Fatal(err)
	}
	switch g.CoordDims() {
	case 2:
		s.SetCoords(g.Coords())
	case 3:
		s.SetCoords3(g.Coords3())
	}
	return s
}

// TestEdgeWeightScalingIsMetamorphic checks that multiplying every edge
// weight by a power of two changes nothing but the unit of the cut: every
// rating, gain and comparison the pipeline makes scales exactly, so the
// blocks must be identical and the cut exactly c times the original's. c =
// 2^20 widens the FM gain spans past what the gain queue's packed run keys
// hold, so the same runs also drive its heap fallback end to end.
func TestEdgeWeightScalingIsMetamorphic(t *testing.T) {
	const k = 8
	for _, spec := range []string{"rmat:12", "rgg:14", "delaunay:13"} {
		g, err := gen.FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		scaled := map[int64]*graph.Graph{}
		for _, c := range []int64{4, 1 << 20} {
			scaled[c] = scaleEdgeWeights(t, g, c)
		}
		for _, preset := range []string{"minimal", "fast", "strong"} {
			for seed := uint64(0); seed < 4; seed++ {
				cfg, err := core.ConfigFromNames(preset, k, 0.03, seed, 0, 0, "auto", "shared")
				if err != nil {
					t.Fatal(err)
				}
				want, err := Run(context.Background(), g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range []int64{4, 1 << 20} {
					label := fmt.Sprintf("%s %s seed %d × %d", spec, preset, seed, c)
					got, err := Run(context.Background(), scaled[c], cfg)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !slices.Equal(got.Blocks, want.Blocks) {
						t.Errorf("%s: blocks differ from the unscaled run's", label)
					}
					if got.Cut != c*want.Cut {
						t.Errorf("%s: cut %d, want %d × %d", label, got.Cut, c, want.Cut)
					}
				}
			}
		}
	}
}
