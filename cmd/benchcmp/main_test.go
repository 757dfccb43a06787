package main

import (
	"strings"
	"testing"
)

// TestCompareReportsMovedRows gates three rows: one unchanged, one whose
// allocs/op moved 3% down and B/op 2% up, both within budget, and one whose
// allocs/op grew past its budget. Only the moved row is counted, its lines
// read MOVED, and the over-budget row still fails the gate.
func TestCompareReportsMovedRows(t *testing.T) {
	base := map[string]metrics{
		"BenchmarkSame":  {bytes: 1000, allocs: 100, has: true},
		"BenchmarkMoved": {bytes: 1000, allocs: 100, has: true},
		"BenchmarkOver":  {bytes: 1000, allocs: 100, has: true},
	}
	cur := map[string]metrics{
		"BenchmarkSame":  {bytes: 1005, allocs: 100, has: true},
		"BenchmarkMoved": {bytes: 1020, allocs: 97, has: true},
		"BenchmarkOver":  {bytes: 1000, allocs: 106, has: true},
	}
	var out strings.Builder
	failed, moved := compare(&out, base, cur)
	if !failed || moved != 1 {
		t.Fatalf("failed %v, moved %d; want true, 1\n%s", failed, moved, out.String())
	}
	want := map[string]string{
		"BenchmarkSame allocs/op": "ok", "BenchmarkSame B/op": "ok",
		"BenchmarkMoved allocs/op": "MOVED", "BenchmarkMoved B/op": "MOVED",
		"BenchmarkOver allocs/op": "FAIL", "BenchmarkOver B/op": "ok",
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	for _, line := range lines {
		f := strings.Fields(line)
		if key := strings.TrimSuffix(f[1], ":") + " " + f[2]; f[0] != want[key] {
			t.Errorf("%q: verdict %q, want %q", line, f[0], want[key])
		}
	}
	if len(lines) != len(want) {
		t.Fatalf("%d lines, want %d\n%s", len(lines), len(want), out.String())
	}
}
