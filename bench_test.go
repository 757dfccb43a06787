// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section. Each benchmark runs a scaled-down version of
// the corresponding experiment (few instances, one repetition) so that
// `go test -bench=. -benchmem` finishes in minutes; the full-suite versions
// with paper-style repetition counts are regenerated by `go run
// ./cmd/benchtables -all -reps 10` (see EXPERIMENTS.md for recorded output).
package repro

import (
	"io"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/core"
)

// smoke bounds every benchmark iteration: one repetition, two instances.
var smoke = bench.Options{Reps: 1, Ks: []int{8}, MaxInstances: 2}

func BenchmarkTable1_Instances(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table1(io.Discard)
	}
}

func BenchmarkTable2_Presets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table2(io.Discard, smoke)
	}
}

func BenchmarkTable3_EdgeRatingsAndMatchers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table3(io.Discard, smoke)
	}
}

func BenchmarkTableInitPart_Engines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.TableInitPart(io.Discard, smoke)
	}
}

func BenchmarkTable4_QueueSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table4Left(io.Discard, smoke)
	}
}

func BenchmarkTable4_Tools(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table4Right(io.Discard, bench.Options{Reps: 1, Ks: []int{16}, MaxInstances: 2})
	}
}

func BenchmarkTable5_LargeCoord(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table5(io.Discard, bench.Options{Reps: 1, MaxInstances: 1})
	}
}

func BenchmarkTables6to8_Minimal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.TablePerInstanceVariant(io.Discard, core.Minimal, 16, smoke)
	}
}

func BenchmarkTables9to11_Fast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.TablePerInstanceVariant(io.Discard, core.Fast, 16, smoke)
	}
}

func BenchmarkTables12to14_Strong(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.TablePerInstanceVariant(io.Discard, core.Strong, 16, smoke)
	}
}

func BenchmarkTables15to19_KMetis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.TablePerInstanceTool(io.Discard, baseline.KMetisLike, 16, smoke)
	}
}

func BenchmarkTables16to20_ParMetis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.TablePerInstanceTool(io.Discard, baseline.ParMetisLike, 16, smoke)
	}
}

func BenchmarkFigure3_Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Figure3(io.Discard, bench.Options{Reps: 1, Ks: []int{4, 16}, MaxInstances: 1})
	}
}

func BenchmarkTables21to23_Walshaw(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.TableWalshaw(io.Discard, 0.03, bench.Options{Reps: 1, Ks: []int{2, 8}, MaxInstances: 2})
	}
}

func BenchmarkAblation_PairwiseVsKway(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.AblationPairwiseVsKway(io.Discard, smoke)
	}
}

func BenchmarkAblation_BandDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.AblationBandDepth(io.Discard, smoke)
	}
}

func BenchmarkAblation_GapMatching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.AblationGapMatching(io.Discard, smoke)
	}
}

func BenchmarkAblation_Schedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.AblationSchedule(io.Discard, smoke)
	}
}

func BenchmarkAblation_InitRepeats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.AblationInitRepeats(io.Discard, smoke)
	}
}

func BenchmarkAblation_Distribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.AblationDistribution(io.Discard, smoke)
	}
}

func BenchmarkAblation_EvolveVsRestarts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.AblationEvolveVsRestarts(io.Discard, bench.Options{Reps: 1, Ks: []int{4}, MaxInstances: 1})
	}
}

// BenchmarkPartitionObserved is BenchmarkPartition/rgg14 with the full
// metric stack attached (WithMetrics + transport stats + arena binding);
// comparing the two quantifies the observability overhead.
func BenchmarkPartitionObserved(b *testing.B) {
	g := RGG(14, 1)
	reg := NewMetricsRegistry()
	stats := NewTransportStats(16)
	arena := NewArena()
	BindTransportMetrics(reg, stats)
	BindArenaMetrics(reg, arena)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := NewConfig(Fast, 16)
		cfg.Seed = uint64(i)
		if _, err := Run(nil, g, cfg, WithMetrics(reg), WithTransportStats(stats), WithArena(arena)); err != nil {
			b.Fatal(err)
		}
	}
}

// End-to-end benchmarks of the public API on one representative instance per
// family, KaPPa-Fast, k=16.
func BenchmarkPartition(b *testing.B) {
	cases := []struct {
		name string
		g    *Graph
	}{
		{"rgg14", RGG(14, 1)},
		{"delaunay14", DelaunayX(14, 2)},
		{"road20k", Road(20000, 8, 3)},
		{"social16k", PrefAttach(16384, 5, 4)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := NewConfig(Fast, 16)
				cfg.Seed = uint64(i)
				mustRun(b, c.g, cfg)
			}
		})
	}
}
