package core

import (
	"context"
	"slices"
	"testing"

	"repro/internal/coarsen"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/part"
	"repro/internal/rating"
)

// mustRun is Run for tests whose configuration is known to be valid.
func mustRun(t testing.TB, g *graph.Graph, cfg Config) Result {
	t.Helper()
	res, err := Run(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func check(t *testing.T, g *graph.Graph, k int, eps float64, res Result) *part.Partition {
	t.Helper()
	p := part.FromBlocks(g, k, eps, res.Blocks)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Cut() != res.Cut {
		t.Fatalf("reported cut %d != actual %d", res.Cut, p.Cut())
	}
	return p
}

func TestPartitionGridVariants(t *testing.T) {
	g := gen.Grid2D(24, 24)
	for _, v := range []Variant{Minimal, Fast, Strong} {
		for _, k := range []int{2, 4, 8} {
			cfg := NewConfig(v, k)
			cfg.Seed = 42
			res := mustRun(t, g, cfg)
			p := check(t, g, k, cfg.Eps, res)
			if !p.Feasible() {
				t.Errorf("%v k=%d: infeasible (balance %.3f)", v, k, p.Imbalance())
			}
			// Sanity on quality: a 24x24 grid cut into k stripes costs
			// 24(k-1); accept anything within 2.5x of that.
			bound := int64(24*(k-1)*5/2 + 12)
			if res.Cut > bound {
				t.Errorf("%v k=%d: cut %d above sanity bound %d", v, k, res.Cut, bound)
			}
		}
	}
}

func TestVariantQualityOrdering(t *testing.T) {
	// Strong must beat Minimal on average (Table 2: 2890 vs 2985).
	g := gen.RGG(12, 7)
	var minimal, strong int64
	for seed := uint64(0); seed < 3; seed++ {
		cm := NewConfig(Minimal, 8)
		cm.Seed = seed
		cs := NewConfig(Strong, 8)
		cs.Seed = seed
		minimal += mustRun(t, g, cm).Cut
		strong += mustRun(t, g, cs).Cut
	}
	if strong > minimal {
		t.Fatalf("Strong total cut %d > Minimal %d", strong, minimal)
	}
}

func TestPartitionDeterministic(t *testing.T) {
	g := gen.DelaunayX(10, 3)
	cfg := NewConfig(Fast, 4)
	cfg.Seed = 99
	a := mustRun(t, g, cfg)
	b := mustRun(t, g, cfg)
	if a.Cut != b.Cut {
		t.Fatalf("same seed, different cuts: %d vs %d", a.Cut, b.Cut)
	}
}

func TestPartitionK1(t *testing.T) {
	g := gen.Grid2D(8, 8)
	cfg := NewConfig(Fast, 1)
	cfg.Seed = 1
	res := mustRun(t, g, cfg)
	if res.Cut != 0 {
		t.Fatalf("k=1 cut = %d", res.Cut)
	}
	for _, b := range res.Blocks {
		if b != 0 {
			t.Fatal("k=1 must put everything in block 0")
		}
	}
}

func TestPartitionWithoutCoords(t *testing.T) {
	g := gen.Banded(4000, 10, 30, 0.7, 5) // no coordinates: index-range prepartition
	cfg := NewConfig(Fast, 8)
	cfg.Seed = 5
	res := mustRun(t, g, cfg)
	p := check(t, g, 8, cfg.Eps, res)
	if !p.Feasible() {
		t.Fatalf("infeasible: %.3f", p.Imbalance())
	}
	if res.Levels < 2 {
		t.Fatalf("expected a multilevel hierarchy, got %d levels", res.Levels)
	}
}

func TestPartitionSocialGraph(t *testing.T) {
	g := gen.PrefAttach(2000, 4, 9)
	cfg := NewConfig(Fast, 4)
	cfg.Seed = 3
	res := mustRun(t, g, cfg)
	p := check(t, g, 4, cfg.Eps, res)
	if !p.Feasible() {
		t.Fatalf("infeasible on social graph: %.3f", p.Imbalance())
	}
}

func TestGapMatchingAblationRuns(t *testing.T) {
	g := gen.RGG(10, 4)
	cfg := NewConfig(Fast, 4)
	cfg.Seed = 8
	cfg.GapMatching = false
	res := mustRun(t, g, cfg)
	p := check(t, g, 4, cfg.Eps, res)
	if !p.Feasible() {
		t.Fatal("ablation produced infeasible partition")
	}
}

// TestNoGapLevelContractsTheLocalMatching runs a shared level of rgg:14,
// twice contracted, over 8 PEs with GapMatching off: the level must contract
// exactly the local matching, so no coarse node joins nodes of two PEs.
func TestNoGapLevelContractsTheLocalMatching(t *testing.T) {
	g := gen.RGG(14, 1)
	cfg := NewConfig(Fast, 8)
	cfg.Seed = 3
	for level := 0; level < 2; level++ {
		g, _, _, _ = sharedLevel(nil, g, &cfg, dist.Assign(g, cfg.Distribution, 8), 8, level, 0, nil)
	}
	blocks := dist.Assign(g, cfg.Distribution, 8)
	cfg.GapMatching = false
	_, f2c, _, _ := sharedLevel(nil, g, &cfg, blocks, 8, 2, 0, nil)
	local := matching.Parallel(nil, g, rating.NewRater(cfg.Rating, g), cfg.Matcher, blocks, 8, cfg.Seed+2*101, 0, false, nil)
	if _, want := coarsen.Contract(g, local); !slices.Equal(f2c, want) {
		t.Fatal("the level did not contract the local matching")
	}
	blockOf := make(map[int32]int32)
	for v, c := range f2c {
		if b, ok := blockOf[c]; ok && b != blocks[v] {
			t.Fatalf("coarse node %d joins nodes of PEs %d and %d", c, b, blocks[v])
		}
		blockOf[c] = blocks[v]
	}
}

func TestPEsIndependentOfK(t *testing.T) {
	// Decoupling PEs from K (the paper's future-work interface) must work.
	g := gen.RGG(11, 6)
	cfg := NewConfig(Fast, 4)
	cfg.Seed = 2
	cfg.PEs = 16
	res := mustRun(t, g, cfg)
	p := check(t, g, 4, cfg.Eps, res)
	if !p.Feasible() {
		t.Fatal("PEs != K produced infeasible partition")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{K: 0},
		{K: 2, Eps: -1},
		{K: 2, StopAlpha: 0},
		{K: 2, StopAlpha: 60, InitRepeats: 0},
		{K: 2, StopAlpha: 60, InitRepeats: 1, MaxGlobalIter: 0},
		{K: 2, StopAlpha: 60, InitRepeats: 1, MaxGlobalIter: 1, LocalIter: 0},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	good := NewConfig(Fast, 4)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestVariantStrings(t *testing.T) {
	if Minimal.String() != "KaPPa-Minimal" || Fast.String() != "KaPPa-Fast" || Strong.String() != "KaPPa-Strong" {
		t.Fatal("variant names wrong")
	}
}

func TestTimingsPopulated(t *testing.T) {
	g := gen.Grid2D(20, 20)
	cfg := NewConfig(Fast, 4)
	cfg.Seed = 1
	res := mustRun(t, g, cfg)
	if res.TotalTime <= 0 {
		t.Fatal("total time not recorded")
	}
	if res.CoarsenTime+res.InitTime+res.RefineTime > res.TotalTime {
		t.Fatal("phase times exceed total")
	}
}

func BenchmarkKaPPaFastRGG13K8(b *testing.B) {
	g := gen.RGG(13, 1)
	cfg := NewConfig(Fast, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		mustRun(b, g, cfg)
	}
}
