package matching

import (
	"math"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/rating"
	"repro/internal/rng"
)

// staleArena returns an arena whose free lists hold four byte, int32 and
// float64 slices each, of 2n elements and full of junk, so a kernel that
// reads scratch it did not set up reads garbage.
func staleArena(n int) *mem.Arena {
	a := mem.NewArena()
	bs, is, fs := make([][]byte, 4), make([][]int32, 4), make([][]float64, 4)
	for k := range bs {
		bs[k], is[k], fs[k] = a.Bytes(2*n), a.Int32(2*n), a.Float64(2*n)
		for i := range 2 * n {
			bs[k][i], is[k][i], fs[k][i] = 0xA5, -3, math.NaN()
		}
	}
	for k := range bs {
		a.PutBytes(bs[k])
		a.PutInt32(is[k])
		a.PutFloat64(fs[k])
	}
	return a
}

// TestGPABlockLocalMatchesAllNodes runs GPA on one block's internal edges
// twice — set up over the block's nodes on stale scratch, and over all nodes
// on fresh scratch — over random graphs with random node and edge weights,
// random block maps, pair bounds and every rating function. The matchings
// must be equal, and the ratings GPA carries out must be, bit for bit, what
// the gap phase used to recompute: rt.Rate(v, m[v], ω) for a matched node, 0
// (left as the caller set it) for an unmatched one, nothing outside the block.
func TestGPABlockLocalMatchesAllNodes(t *testing.T) {
	for trial := range 60 {
		r := rng.New(uint64(900 + trial))
		n := 2 + r.Intn(300)
		b := graph.NewBuilder(n)
		for v := range n {
			b.SetNodeWeight(int32(v), int64(1+r.Intn(4)))
		}
		for range n * (1 + r.Intn(5)) {
			b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)), int64(1+r.Intn(3)))
		}
		g := b.Build()
		rf := rating.All[trial%len(rating.All)]
		rt := rating.NewRater(rf, g)
		var maxPair int64
		if trial%3 == 0 {
			maxPair = 5
		}
		nparts := 1 + r.Intn(6)
		block := make([]int32, n)
		for v := range block {
			block[v] = int32(r.Intn(nparts))
		}
		arena := staleArena(n)
		for p := range int32(nparts) {
			var nodes []int32
			var edges []Edge
			for v := range int32(n) {
				if block[v] != p {
					continue
				}
				nodes = append(nodes, v)
				for i, u := range g.Adj(v) {
					if u > v && block[u] == p {
						edges = append(edges, Edge{v, u, rt.Rate(v, u, g.AdjWeights(v)[i]), uint32(r.Uint64())})
					}
				}
			}
			want := NewEmpty(n)
			gpaEdges(g, nil, slices.Clone(edges), want, nil, maxPair, nil)
			got := NewEmpty(n)
			rated := make([]float64, n)
			for v := range rated {
				if block[v] != p {
					rated[v] = -1
				}
			}
			gpaEdges(g, nodes, edges, got, rated, maxPair, arena)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d (%v), block %d: block-local GPA matched %v, all-nodes GPA %v", trial, rf, p, got, want)
			}
			for v := range int32(n) {
				u := got[v]
				switch {
				case block[v] != p:
					if rated[v] != -1 {
						t.Fatalf("trial %d, block %d: node %d of block %d given rating %v", trial, p, v, block[v], rated[v])
					}
				case u < 0:
					if math.Float64bits(rated[v]) != 0 {
						t.Fatalf("trial %d, block %d: unmatched node %d given rating %v", trial, p, v, rated[v])
					}
				default:
					if want := rt.Rate(v, u, g.EdgeWeightTo(v, u)); math.Float64bits(rated[v]) != math.Float64bits(want) {
						t.Fatalf("trial %d (%v): node %d matched to %d carries rating %v, recomputed %v", trial, rf, v, u, rated[v], want)
					}
				}
			}
		}
	}
}

// BenchmarkParallelMatching times one level-0 shared-memory matching of §3.3
// on the paper's home family: GPA inside each of P RCB blocks, then the gap
// graph, on one goroutine per processor (a nil crew).
func BenchmarkParallelMatching(b *testing.B) {
	g := gen.RGG(15, 1)
	rt := rating.NewRater(rating.ExpansionStar2, g)
	const p = 16
	block := dist.Assign(g, dist.StrategyRCB, p)
	b.Run("rgg15/P=16", func(b *testing.B) {
		arena := mem.NewArena()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			arena.PutInt32(Parallel(nil, g, rt, GPA, block, p, 1, 0, true, arena))
		}
	})
}
