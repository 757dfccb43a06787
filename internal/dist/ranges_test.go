package dist

import "testing"

// checkAssignment verifies basic well-formedness: right length, values in
// [0, pes), and (for range-style strategies) monotone non-decreasing PEs.
func checkAssignment(t *testing.T, assign []int32, n, pes int) {
	t.Helper()
	if len(assign) != n {
		t.Fatalf("assignment has %d entries, want %d", len(assign), n)
	}
	for v, pe := range assign {
		if pe < 0 || int(pe) >= pes {
			t.Fatalf("node %d assigned to PE %d, want [0,%d)", v, pe, pes)
		}
	}
}

func TestIndexRangesBalance(t *testing.T) {
	for _, tc := range []struct{ n, pes int }{
		{100, 4}, {100, 3}, {101, 7}, {1, 1}, {5, 5}, {8192, 13},
	} {
		assign := IndexRanges(tc.n, tc.pes)
		checkAssignment(t, assign, tc.n, tc.pes)
		counts := make([]int, tc.pes)
		for i, pe := range assign {
			if i > 0 && pe < assign[i-1] {
				t.Fatalf("n=%d pes=%d: assignment not contiguous at %d", tc.n, tc.pes, i)
			}
			counts[pe]++
		}
		min, max := tc.n, 0
		for _, c := range counts {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if max-min > 1 {
			t.Errorf("n=%d pes=%d: range sizes spread %d..%d, want within 1", tc.n, tc.pes, min, max)
		}
	}
}

func TestIndexRangesDegenerate(t *testing.T) {
	if got := IndexRanges(0, 4); len(got) != 0 {
		t.Errorf("n=0: got %v", got)
	}
	// n < pes: every node gets its own PE, no out-of-range values.
	assign := IndexRanges(3, 8)
	checkAssignment(t, assign, 3, 8)
	seen := map[int32]bool{}
	for _, pe := range assign {
		if seen[pe] {
			t.Errorf("n<pes: PE %d used twice in %v", pe, assign)
		}
		seen[pe] = true
	}
}

func TestWeightedRangesBalance(t *testing.T) {
	// Geometric-ish weights: the heavy tail must not all land on one PE.
	n, pes := 1000, 7
	w := make([]int64, n)
	for i := range w {
		w[i] = int64(1 + i%17)
	}
	assign := weightedRangesInto(make([]int32, len(w)), w, pes)
	checkAssignment(t, assign, n, pes)
	var total int64
	sums := make([]int64, pes)
	for v, pe := range assign {
		sums[pe] += w[v]
		total += w[v]
	}
	avg := float64(total) / float64(pes)
	for pe, s := range sums {
		if ratio := float64(s) / avg; ratio > 1.10 || ratio < 0.90 {
			t.Errorf("PE %d has weight %d (%.2fx average)", pe, s, ratio)
		}
	}
}

func TestWeightedRangesHeavyNodeNoStarvation(t *testing.T) {
	// A node heavier than a whole range must not let the cut points skip
	// PEs: with n >= pes every PE still gets at least one node.
	for _, w := range [][]int64{
		{100, 1, 1, 1},
		{1, 1, 1, 100},
		{1, 100, 1, 1, 1, 1},
		{50, 50, 1, 1},
	} {
		for pes := 2; pes <= len(w); pes++ {
			assign := weightedRangesInto(make([]int32, len(w)), w, pes)
			checkAssignment(t, assign, len(w), pes)
			counts := make([]int, pes)
			for i, pe := range assign {
				if i > 0 && pe < assign[i-1] {
					t.Fatalf("w=%v pes=%d: not contiguous: %v", w, pes, assign)
				}
				counts[pe]++
			}
			for pe, c := range counts {
				if c == 0 {
					t.Errorf("w=%v pes=%d: PE %d starved: %v", w, pes, pe, assign)
				}
			}
		}
	}
}

func TestWeightedRangesZeroWeights(t *testing.T) {
	// All-zero weights degrade to index ranges rather than collapsing.
	assign := weightedRangesInto(make([]int32, 100), make([]int64, 100), 4)
	checkAssignment(t, assign, 100, 4)
	counts := make([]int, 4)
	for _, pe := range assign {
		counts[pe]++
	}
	for pe, c := range counts {
		if c != 25 {
			t.Errorf("PE %d got %d nodes, want 25", pe, c)
		}
	}
	// Mixed zero and non-zero weights stay in range.
	w := make([]int64, 50)
	for i := 10; i < 40; i++ {
		w[i] = 3
	}
	checkAssignment(t, weightedRangesInto(make([]int32, len(w)), w, 6), 50, 6)
}
