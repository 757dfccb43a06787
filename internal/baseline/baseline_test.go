package baseline

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/part"
)

func TestAllToolsProduceValidPartitions(t *testing.T) {
	g := gen.RGG(11, 3)
	for _, tool := range []Tool{KMetisLike, ParMetisLike, ScotchLike} {
		for _, k := range []int{2, 4, 8} {
			res := Run(g, k, 0.03, tool, 7)
			p := part.FromBlocks(g, k, 0.03, res.Blocks)
			if err := p.Validate(); err != nil {
				t.Fatalf("%v k=%d: %v", tool, k, err)
			}
			if p.Cut() != res.Cut {
				t.Fatalf("%v k=%d: reported cut %d != actual %d", tool, k, res.Cut, p.Cut())
			}
			if res.Cut == 0 {
				t.Fatalf("%v k=%d: zero cut on connected graph", tool, k)
			}
			lmax := part.ComputeLmax(g, k, 0.03+1e-9) // every tool respects 3%
			if p.MaxBlockWeight() > lmax {
				t.Errorf("%v k=%d: balance %0.3f exceeds bound", tool, k, res.Balance)
			}
		}
	}
}

func TestQualityOrderingOnMesh(t *testing.T) {
	// Average over a few seeds: scotch-like <= kmetis-like cut, and the
	// parallel recipe must not beat the sequential one (paper: parMetis is
	// worse than kMetis).
	g := gen.DelaunayX(11, 5)
	var scotch, kmetis, parmetis int64
	for seed := uint64(0); seed < 3; seed++ {
		scotch += Run(g, 8, 0.03, ScotchLike, seed).Cut
		kmetis += Run(g, 8, 0.03, KMetisLike, seed).Cut
		parmetis += Run(g, 8, 0.03, ParMetisLike, seed).Cut
	}
	if parmetis < kmetis {
		t.Logf("note: parmetis-like (%d) beat kmetis-like (%d) on this input", parmetis, kmetis)
	}
	if kmetis*3 < scotch*2 {
		t.Errorf("kmetis-like (%d) implausibly better than scotch-like (%d)", kmetis, scotch)
	}
}

// TestKaPPaBeatsBaselinesOnMeshes asserts the paper's headline shape on a
// mesh: averaged over seeds, KaPPa-Strong must beat the kMetis-like and
// parMetis-like recipes.
func TestKaPPaBeatsBaselinesOnMeshes(t *testing.T) {
	g := gen.DelaunayX(12, 8)
	var strong, kmetis, parmetis int64
	for s := uint64(0); s < 3; s++ {
		cfg := core.NewConfig(core.Strong, 8)
		cfg.Seed = s
		res, err := core.Run(context.Background(), g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		strong += res.Cut
		kmetis += Run(g, 8, 0.03, KMetisLike, s).Cut
		parmetis += Run(g, 8, 0.03, ParMetisLike, s).Cut
	}
	if strong > kmetis {
		t.Errorf("KaPPa-Strong (%d) lost to kmetis-like (%d)", strong, kmetis)
	}
	if strong > parmetis {
		t.Errorf("KaPPa-Strong (%d) lost to parmetis-like (%d)", strong, parmetis)
	}
}

func TestToolStrings(t *testing.T) {
	if KMetisLike.String() != "kmetis" || ParMetisLike.String() != "parmetis" || ScotchLike.String() != "scotch" {
		t.Fatal("tool names wrong")
	}
}

func TestDeterministicForSeed(t *testing.T) {
	g := gen.Grid2D(20, 20)
	a := Run(g, 4, 0.03, KMetisLike, 11)
	b := Run(g, 4, 0.03, KMetisLike, 11)
	if a.Cut != b.Cut {
		t.Fatal("kmetis-like not deterministic")
	}
}

func BenchmarkKMetisLike(b *testing.B) {
	g := gen.RGG(13, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(g, 8, 0.03, KMetisLike, uint64(i))
	}
}
