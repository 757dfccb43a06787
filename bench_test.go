// Benchmark harness: the two paper-table benchmarks the allocation gate
// (BENCH_GATE) reads, at a scaled-down size (two instances, one repetition),
// and end-to-end runs of the public API. The full tables, with paper-style
// repetition counts, are regenerated by `go run ./cmd/benchtables -all -reps
// 10`. Each table benchmark takes its instances from bench.Suites, so it
// shares no generated graph with another benchmark and reads the same alone
// as in the gate.
package repro

import (
	"io"
	"testing"

	"repro/internal/bench"
)

// BenchmarkTable1_Instances times what Table 1 describes: generating both
// suites' instances, fresh in every op.
func BenchmarkTable1_Instances(b *testing.B) {
	for i := 0; i < b.N; i++ {
		calibration, large := bench.Suites()
		for _, in := range append(calibration, large...) {
			in.Graph()
		}
	}
}

// BenchmarkTable2_Presets times Table 2's presets on the first two
// calibration instances, generated before the timer starts.
func BenchmarkTable2_Presets(b *testing.B) {
	t, _ := bench.Lookup("2")
	calibration, _ := bench.Suites()
	two := calibration[:2]
	for _, in := range two {
		in.Graph()
	}
	t.Suite = func() []*bench.Instance { return two }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Print(io.Discard, bench.Options{Reps: 1, Ks: []int{8}})
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
		{"rmat12", RMAT(12, 10, 1)}, // the powerlaw_refine workload's input
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
