package main

import (
	"io"
	"testing"
)

func setWith(p50, eps, cut float64, failed int, levels float64) *resultSet {
	mv := func(v float64) metricValue { return metricValue{Value: v} }
	return &resultSet{Workloads: []workloadResult{{
		Name:      "mesh_coarsen",
		Attempted: 100, Failed: failed,
		EndToEnd: map[string]metricValue{
			"setup_s": mv(1), "op_p50_s": mv(p50), "edges_per_s": mv(eps), "cut_sum": mv(cut), "rss_p90_mb": mv(50),
		},
		PerLayer: map[string]metricValue{"core.levels": mv(levels), "core.coarsen_s": mv(p50 / 2)},
	}}}
}

func otherSeed(s *resultSet) *resultSet {
	s.Seed = 2
	return s
}

func TestCompare(t *testing.T) {
	base := setWith(1.0, 1000, 5000, 0, 9)
	for _, tc := range []struct {
		name string
		b    *resultSet
		same bool
		want int
	}{
		{"identical", setWith(1.0, 1000, 5000, 0, 9), true, 0},
		{"within bounds", setWith(1.05, 960, 5020, 0, 9), false, 0},
		{"faster is no breach", setWith(0.5, 2000, 4000, 0, 9), false, 0},
		{"latency beyond bound", setWith(1.5, 1000, 5000, 0, 9), false, 1},
		{"throughput beyond bound", setWith(1.0, 500, 5000, 0, 9), false, 1},
		{"more failed ops", setWith(1.0, 1000, 5000, 1, 9), false, 1},
		{"cut moved a little, different programs", setWith(1.0, 1000, 5001, 0, 9), false, 0},
		{"cut 2 % worse on the same seed", setWith(1.0, 1000, 5100, 0, 9), false, 1},
		{"cut 2 % worse on another seed", otherSeed(setWith(1.0, 1000, 5100, 0, 9)), false, 0},
		{"cut moved, same program", setWith(1.0, 1000, 5001, 0, 9), true, 1},
		{"exact layer count moved, same program", setWith(1.0, 1000, 5000, 0, 10), true, 1},
	} {
		if got := compare(io.Discard, base, tc.b, tc.same); got != tc.want {
			t.Errorf("%s: %d breaches, want %d", tc.name, got, tc.want)
		}
	}
}
