package repro

import (
	"context"
	"errors"
	"fmt"
	"maps"
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

// checkValid holds a run to the partition contract: every node is assigned a
// block below k, the reported cut and balance are those of the blocks, and
// a partition over Lmax was reported infeasible by the run's final
// rebalance.
func checkValid(t *testing.T, label string, g *graph.Graph, cfg core.Config, res core.Result, rebalance *core.RebalanceEvent) {
	t.Helper()
	if len(res.Blocks) != g.NumNodes() {
		t.Fatalf("%s: %d blocks for %d nodes", label, len(res.Blocks), g.NumNodes())
	}
	for v, b := range res.Blocks {
		if b < 0 || int(b) >= cfg.K {
			t.Fatalf("%s: node %d in block %d of %d", label, v, b, cfg.K)
		}
	}
	cut, balance, feasible := Evaluate(g, cfg.K, cfg.Eps, res.Blocks)
	if res.Cut != cut || res.Balance != balance {
		t.Errorf("%s: reported cut %d, balance %v; the blocks have %d, %v", label, res.Cut, res.Balance, cut, balance)
	}
	if !feasible && (rebalance == nil || rebalance.Feasible) {
		t.Errorf("%s: balance %v is over Lmax but the run did not report it infeasible", label, balance)
	}
}

// runChecked runs cfg on g, recording the last rebalance the run reports,
// and checks the result with checkValid.
func runChecked(t *testing.T, label string, g *graph.Graph, cfg core.Config, opts ...Option) (core.Result, error) {
	t.Helper()
	var last *core.RebalanceEvent
	opts = append(opts, WithObserver(ObserverFunc(func(ev core.TraceEvent) {
		if rb, ok := ev.(core.RebalanceEvent); ok {
			last = &rb
		}
	})))
	res, err := Run(context.Background(), g, cfg, opts...)
	if err == nil {
		checkValid(t, label, g, cfg, res, last)
	}
	return res, err
}

// disjointUnion places the graphs side by side, ids in argument order, and
// adds isolated unit-weight nodes after them. The union carries no
// coordinates.
func disjointUnion(isolated int, gs ...*graph.Graph) *graph.Graph {
	n := isolated
	for _, g := range gs {
		n += g.NumNodes()
	}
	b := graph.NewBuilder(n)
	off := int32(0)
	for _, g := range gs {
		for v := int32(0); v < int32(g.NumNodes()); v++ {
			b.SetNodeWeight(off+v, g.NodeWeight(v))
			ws := g.AdjWeights(v)
			for i, u := range g.Adj(v) {
				if v < u {
					b.AddEdge(off+v, off+u, ws[i])
				}
			}
		}
		off += int32(g.NumNodes())
	}
	return b.Build()
}

// TestRunOnWarmArenaMatchesColdRun checks that an arena first used for
// larger, different graphs leaves nothing behind: a kappa api slot reuses its
// arena across jobs of any size, so each job must get the blocks of a run on
// a fresh arena. One arena per coarsening mode is warmed by two larger graphs
// and then serves every family in turn.
func TestRunOnWarmArenaMatchesColdRun(t *testing.T) {
	families := perfFamilies()
	for _, mode := range []CoarsenMode{CoarsenShared, CoarsenDistributed} {
		arena := NewArena()
		for i, w := range []*graph.Graph{RGG(12, 31), RMAT(12, 8, 32)} {
			cfg := NewConfig(Fast, 16-4*i)
			cfg.Coarsen = mode
			if _, err := Run(context.Background(), w, cfg, WithArena(arena)); err != nil {
				t.Fatal(err)
			}
		}
		for _, name := range slices.Sorted(maps.Keys(families)) {
			g := families[name]
			cfg := NewConfig(Fast, 8)
			cfg.Seed = 41
			cfg.Coarsen = mode
			cold, err := Run(context.Background(), g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := runChecked(t, name, g, cfg, WithArena(arena))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(warm.Blocks, cold.Blocks) || warm.Cut != cold.Cut {
				t.Errorf("%s/%s: the run on a warm arena differs from the cold run (cut %d, cold %d)", name, mode, warm.Cut, cold.Cut)
			}
		}
	}
}

// TestDegenerateGraphsGiveValidPartitions runs graphs the multilevel scheme
// has little to hold on to — nothing but isolated nodes, and a mesh beside a
// second component and isolated nodes — through every preset and coarsening
// mode: each must yield a valid partition whose reported cut is the cut of
// its blocks.
func TestDegenerateGraphsGiveValidPartitions(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"isolated":                disjointUnion(500),
		"mesh+component+isolated": disjointUnion(60, DelaunayX(10, 5), Grid2D(6, 6)),
	}
	for name, g := range graphs {
		for _, preset := range []string{"minimal", "fast", "strong"} {
			for _, coarsen := range []string{"shared", "distributed"} {
				for _, k := range []int{2, 7} {
					cfg, err := core.ConfigFromNames(preset, k, 0.03, 3, 0, 0, "auto", coarsen)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s %s %s k=%d", name, preset, coarsen, k)
					res, err := runChecked(t, label, g, cfg)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if name == "isolated" && res.Cut != 0 {
						t.Errorf("%s: cut %d on a graph without edges", label, res.Cut)
					}
				}
			}
		}
	}
}

// FuzzRun turns bytes into a graph of at most 64 nodes and a configuration
// by names, the way the CLI and the service build theirs, and runs it twice.
// No input may panic; an input the configuration check refuses is refused by
// both runs alike; every other input gives two equal, valid partitions.
func FuzzRun(f *testing.F) {
	f.Add([]byte{16, 4, 1, 3, 7, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{63, 8, 2, 40, 1, 3, 2, 1, 1, 200, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 33, 44, 55})
	f.Add([]byte{5, 5, 0, 0, 0, 5, 3, 0, 2})
	f.Add([]byte{0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		n := at(0)%64 + 1
		k := at(1)%min(n, 8) + 1
		cfg, err := core.ConfigFromNames(
			[]string{"minimal", "fast", "strong"}[at(2)%3], k,
			0.01+float64(at(3)%50)/100, uint64(at(4)), at(5)%5, at(6)%3,
			[]string{"auto", "ranges", "rcb"}[at(7)%3],
			[]string{"shared", "distributed"}[at(8)%2])
		if err != nil {
			return
		}
		flags, body := at(9), data[min(len(data), 10):]
		b := graph.NewBuilder(n)
		for v := int32(0); v < int32(n); v++ {
			if flags&1 != 0 {
				b.SetNodeWeight(v, int64(at(10+int(v))%4+1))
			}
			if flags&2 != 0 {
				b.SetCoord(v, float64(at(10+int(v))), float64(at(11+int(v))))
			}
		}
		for i := 0; i+2 < len(body); i += 3 {
			b.AddEdge(int32(int(body[i])%n), int32(int(body[i+1])%n), int64(body[i+2]%8+1))
		}
		g := b.Build()
		first, err1 := runChecked(t, "first run", g, cfg)
		second, err2 := runChecked(t, "second run", g, cfg)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("the runs disagree: %v, %v", err1, err2)
		}
		if err1 != nil {
			if !errors.Is(err1, ErrInvalidConfig) {
				t.Fatalf("run failed: %v", err1)
			}
			return
		}
		if !slices.Equal(first.Blocks, second.Blocks) || first.Cut != second.Cut || first.Levels != second.Levels {
			t.Fatalf("two runs differ: cut %d vs %d, %d vs %d levels", first.Cut, second.Cut, first.Levels, second.Levels)
		}
	})
}
