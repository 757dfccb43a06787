package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// A synthetic op: two PEs run in parallel under a level, one of them
// sticking out of it, and two phases overlap each other.
//
//	op          0 ────────────────────────── 10
//	 coarsen      1 ─────────── 6
//	  pe            2 ──── 4
//	  pe              3 ────────── 7   (clipped to 6)
//	 refine              5 ──────────── 9   (overlaps coarsen on 5–6)
func syntheticTrace() []span {
	return []span{
		{ID: 0, Parent: -1, Op: 0, Name: "op", Start: 0, End: 10},
		{ID: 1, Parent: 0, Op: 0, Name: "coarsen", Start: 1, End: 6},
		{ID: 2, Parent: 1, Op: 0, Name: "pe", Start: 2, End: 4},
		{ID: 3, Parent: 1, Op: 0, Name: "pe", Start: 3, End: 7},
		{ID: 4, Parent: 0, Op: 0, Name: "refine", Start: 5, End: 9},
	}
}

func TestSelfTimes(t *testing.T) {
	self := selfTimes(syntheticTrace())
	want := []float64{
		2, // op: 10 − union(1–6, 5–9) = 10 − 8
		1, // coarsen: 5 − union(2–4, 3–6) = 5 − 4
		2, // pe 2–4
		4, // pe 3–7: its own duration; clipping applies to the parent only
		4, // refine
	}
	for i := range want {
		if !near(self[i], want[i]) {
			t.Errorf("self time of span %d (%s) = %v, want %v", i, syntheticTrace()[i].Name, self[i], want[i])
		}
	}
}

func TestBudget(t *testing.T) {
	rows := budget(syntheticTrace())
	got := map[string]budgetRow{}
	for _, r := range rows {
		got[r.Name] = r
	}
	if r := got["pe"]; !near(r.Self, 6) || r.Count != 2 || !near(r.Share, 0.6) {
		t.Errorf("pe row %+v, want self 6, count 2, share 0.6", r)
	}
	if r := got["op"]; !near(r.Self, 2) || !near(r.Share, 0.2) {
		t.Errorf("op row %+v, want self 2, share 0.2", r)
	}
	if rows[0].Name != "pe" {
		t.Errorf("largest row is %s, want pe", rows[0].Name)
	}
	// Parallel PEs and overlapping phases are counted once each: the shares
	// sum to more than one, by exactly the overlap.
	sum := 0.0
	for _, r := range rows {
		sum += r.Share
	}
	if !near(sum, 1.3) {
		t.Errorf("shares sum to %v, want 1.3", sum)
	}
	if s := spanSum(syntheticTrace(), "pe"); !near(s, 6) {
		t.Errorf("spanSum(pe) = %v, want 6", s)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := median(xs); !near(q, 2.5) {
		t.Errorf("median %v, want 2.5", q)
	}
	if q := quantile(xs, 1); !near(q, 4) {
		t.Errorf("max %v, want 4", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("quantile of nothing %v, want 0", q)
	}
}
