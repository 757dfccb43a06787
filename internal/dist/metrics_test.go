package dist

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestEdgeLocalityBounds(t *testing.T) {
	g := gen.Grid2D(10, 10)
	// Everything on one PE: locality 1.
	if l := EdgeLocality(g, make([]int32, g.NumNodes())); l != 1 {
		t.Errorf("single PE locality = %v, want 1", l)
	}
	// Checkerboard on a grid: every edge crosses, locality 0.
	assign := make([]int32, g.NumNodes())
	for v := range assign {
		i, j := v/10, v%10
		assign[v] = int32((i + j) % 2)
	}
	if l := EdgeLocality(g, assign); l != 0 {
		t.Errorf("checkerboard locality = %v, want 0", l)
	}
}

func TestMetricsDegenerate(t *testing.T) {
	// Edgeless graph: locality defined as 1, imbalance finite.
	edgeless, err := graph.FromCSR([]int32{0, 0, 0, 0}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l := EdgeLocality(edgeless, make([]int32, 3)); l != 1 {
		t.Errorf("edgeless locality = %v, want 1", l)
	}

	// n < pes: imbalance reflects empty PEs but stays finite.
	assign := IndexRanges(3, 8)
	if b := Imbalance(edgeless, assign, 8); b < 1 {
		t.Errorf("n<pes imbalance = %v, want >= 1", b)
	}

	// Zero-weight nodes: total weight 0 reports 1.0, not NaN.
	zero, err := graph.FromCSR([]int32{0, 1, 2}, []int32{1, 0}, []int64{1, 1}, []int64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if b := Imbalance(zero, []int32{0, 1}, 2); b != 1 {
		t.Errorf("zero-weight imbalance = %v, want 1", b)
	}

	// pes <= 0 guarded.
	if b := Imbalance(zero, []int32{0, 0}, 0); b != 1 {
		t.Errorf("pes=0 imbalance = %v, want 1", b)
	}

	// Empty graph.
	empty, err := graph.FromCSR([]int32{0}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l := EdgeLocality(empty, nil); l != 1 {
		t.Errorf("empty locality = %v, want 1", l)
	}
	if b := Imbalance(empty, nil, 4); b != 1 {
		t.Errorf("empty imbalance = %v, want 1", b)
	}
}

func TestImbalanceMatchesBlockWeights(t *testing.T) {
	g := gen.RGG(10, 7)
	pes := 6
	assign := rcbScratch(nil, g.Coords(), nil, pes, nil)
	weights := blockWeights(g, assign, pes)
	var total, max int64
	for _, w := range weights {
		total += w
		if w > max {
			max = w
		}
	}
	if total != g.TotalNodeWeight() {
		t.Errorf("block weights sum to %d, graph weighs %d", total, g.TotalNodeWeight())
	}
	want := float64(max) * float64(pes) / float64(total)
	if got := Imbalance(g, assign, pes); got != want {
		t.Errorf("imbalance = %v, want %v", got, want)
	}
	// RCB on an RGG should be essentially balanced.
	if got := Imbalance(g, assign, pes); got > 1.05 {
		t.Errorf("RCB imbalance %v too high", got)
	}
}

func TestAssignStrategies(t *testing.T) {
	withCoords := gen.Grid2D(20, 20)
	noCoords := gen.Grid3D(6, 6, 6)
	for _, s := range []Strategy{StrategyAuto, StrategyRanges, StrategyRCB} {
		for _, g := range []*graph.Graph{withCoords, noCoords} {
			assign := Assign(g, s, 5)
			checkAssignment(t, assign, g.NumNodes(), 5)
		}
		// pes=1 short-circuits to all-zero.
		for _, pe := range Assign(withCoords, s, 1) {
			if pe != 0 {
				t.Fatalf("%v: pes=1 must assign PE 0", s)
			}
		}
	}
	// RCB must actually use the geometry: better locality than ranges on
	// the grid.
	lr := EdgeLocality(withCoords, Assign(withCoords, StrategyRanges, 8))
	if l := EdgeLocality(withCoords, Assign(withCoords, StrategyRCB, 8)); l <= lr {
		t.Errorf("rcb locality %.3f not better than ranges %.3f", l, lr)
	}
}

// TestResolveIsWhatAssignRuns holds Strategy.Resolve to Assign: every
// strategy assigns a graph exactly as the strategy it resolves to.
func TestResolveIsWhatAssignRuns(t *testing.T) {
	for _, g := range []*graph.Graph{gen.RGG(9, 2), gen.Grid3D(6, 5, 4), gen.PrefAttach(300, 3, 1)} {
		for _, s := range []Strategy{StrategyAuto, StrategyRanges, StrategyRCB} {
			r := s.Resolve(g.HasCoords())
			if r == StrategyAuto {
				t.Fatalf("%v resolves to auto", s)
			}
			if !slices.Equal(Assign(g, s, 5), Assign(g, r, 5)) {
				t.Errorf("coords %v: %v assigns unlike %v, its resolution", g.HasCoords(), s, r)
			}
		}
	}
}

func TestParseStrategyRoundTrip(t *testing.T) {
	for _, s := range []Strategy{StrategyAuto, StrategyRanges, StrategyRCB} {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v", s.String(), got, err)
		}
	}
	for _, name := range []string{"bogus", "kway", "rcb2"} {
		if _, err := ParseStrategy(name); err == nil || !strings.Contains(err.Error(), "auto|ranges|rcb)") {
			t.Errorf("ParseStrategy(%q): got %v, want an error with the vocabulary auto|ranges|rcb", name, err)
		}
	}
	// Case-insensitive: the CLI and the facade accept the same names.
	if got, err := ParseStrategy("RCB"); err != nil || got != StrategyRCB {
		t.Errorf("ParseStrategy(\"RCB\") = %v, %v", got, err)
	}
}
