package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/coarsen"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/part"
)

// checkedRefiner is the default Refiner with the boundary-index check wired
// into every refinement level.
type checkedRefiner struct {
	check func(idx *part.BoundaryIndex, p *part.Partition, view []int32, a, b int32)
}

func (c checkedRefiner) Refine(ctx context.Context, h *coarsen.Hierarchy, initial []int32, cfg *Config, env *Env) (*part.Partition, error) {
	env.indexCheck = c.check
	return pairwiseRefiner{}.Refine(ctx, h, initial, cfg, env)
}

// checkIndexLists verifies the boundary-index invariants for the given blocks
// of the partition view describes: every node of block b with a neighbour
// outside b is in list b, no node of b is in list b twice, and MinWeight(b)
// is at most the weight of b's lightest node.
func checkIndexLists(g *graph.Graph, idx *part.BoundaryIndex, view []int32, blocks ...int32) error {
	for _, b := range blocks {
		for v := int32(0); v < int32(g.NumNodes()); v++ {
			if part.ViewGet(view, v) == b && g.NodeWeight(v) < idx.MinWeight(b) {
				return fmt.Errorf("MinWeight(%d) = %d, node %d weighs %d", b, idx.MinWeight(b), v, g.NodeWeight(v))
			}
		}
		listed := make(map[int32]bool)
		for _, v := range idx.List(b) {
			if part.ViewGet(view, v) != b {
				continue
			}
			if listed[v] {
				return fmt.Errorf("node %d is in list %d twice", v, b)
			}
			listed[v] = true
		}
		for v := int32(0); v < int32(g.NumNodes()); v++ {
			if part.ViewGet(view, v) != b || listed[v] {
				continue
			}
			for _, u := range g.Adj(v) {
				if part.ViewGet(view, u) != b {
					return fmt.Errorf("boundary node %d of block %d is not in its list", v, b)
				}
			}
		}
	}
	return nil
}

// TestBoundaryIndexInvariantDuringRun checks the index after every pair
// refinement of full runs (the pair's two lists and weight bounds, on the
// pair's goroutine) and after every round (all lists and bounds, and the
// index's quotient against Partition.Quotient). Among the pairs must be some
// that end a call with both blocks too full to take any node — the state
// every stuck pair, which returns before it builds a band, starts and ends
// in.
func TestBoundaryIndexInvariantDuringRun(t *testing.T) {
	graphs := map[string]*graph.Graph{"rgg": gen.RGG(11, 1), "rmat": gen.RMAT(9, 8, 1), "grid": gen.Grid2D(40, 40)}
	fullPairs := 0
	for name, g := range graphs {
		for _, k := range []int{2, 4, 16} {
			for _, preset := range []Variant{Fast, Strong} {
				var mu sync.Mutex
				var first error
				pairs, full, rounds := 0, 0, 0
				fail := func(err error) {
					mu.Lock()
					defer mu.Unlock()
					if first == nil {
						first = err
					}
				}
				check := func(idx *part.BoundaryIndex, p *part.Partition, view []int32, a, b int32) {
					if a >= 0 {
						room := p.Lmax() - slices.Min(p.G.NodeWeights())
						mu.Lock()
						pairs++
						if wa, wb := p.BlockWeight(a), p.BlockWeight(b); max(wa, wb) <= p.Lmax() && min(wa, wb) > room {
							full++
						}
						mu.Unlock()
						if err := checkIndexLists(p.G, idx, view, a, b); err != nil {
							fail(fmt.Errorf("after pair (%d,%d): %w", a, b, err))
						}
						return
					}
					rounds++
					all := make([]int32, k)
					for i := range all {
						all[i] = int32(i)
					}
					if err := checkIndexLists(p.G, idx, view, all...); err != nil {
						fail(fmt.Errorf("after a round: %w", err))
					}
					if got, want := idx.Quotient(), p.Quotient(); !slices.Equal(got, want) {
						fail(fmt.Errorf("after a round: index quotient %v, partition quotient %v", got, want))
					}
				}
				cfg := NewConfig(preset, k)
				cfg.Seed = 7
				if _, err := Run(context.Background(), g, cfg, WithRefiner(checkedRefiner{check})); err != nil {
					t.Fatal(err)
				}
				if first != nil {
					t.Fatalf("%s k=%d %v: %v", name, k, preset, first)
				}
				if pairs == 0 || rounds == 0 {
					t.Fatalf("%s k=%d %v: check ran on %d pairs and %d rounds", name, k, preset, pairs, rounds)
				}
				fullPairs += full
			}
		}
	}
	if fullPairs == 0 {
		t.Fatal("no pair ended a call with both blocks full")
	}
	t.Logf("%d pairs ended a call with both blocks full", fullPairs)
}

// BenchmarkRefineLevel times one global iteration of pairwise refinement on
// the finest level of a mesh and of a power-law graph, k=16, over the
// partition a Minimal run leaves: index build, quotient, colouring and one
// FM pass over every block pair. An untimed first call warms the arena and
// the workspaces, so allocs/op is the steady state a V-cycle sees on all but
// its first level.
func BenchmarkRefineLevel(b *testing.B) {
	for _, spec := range []string{"rgg:15", "rmat:12"} {
		b.Run(strings.ReplaceAll(spec, ":", ""), func(b *testing.B) {
			g, err := gen.FromSpec(spec)
			if err != nil {
				b.Fatal(err)
			}
			minimal := NewConfig(Minimal, 16)
			minimal.Seed = 1
			base, err := Run(context.Background(), g, minimal)
			if err != nil {
				b.Fatal(err)
			}
			cfg := NewConfig(Fast, 16)
			cfg.Seed = 1
			cfg.MaxGlobalIter = 1
			env := &Env{Arena: mem.NewArena()}
			blocks := make([]int32, g.NumNodes())
			refineOnce := func() {
				copy(blocks, base.Blocks)
				p := part.FromBlocks(g, cfg.K, cfg.Eps, blocks)
				if err := refineLevel(context.Background(), p, &cfg, 0, 0, env); err != nil {
					b.Fatal(err)
				}
			}
			refineOnce()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				refineOnce()
			}
		})
	}
}
