package rating

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/par"
)

// weightedTriangle: nodes 0,1,2 with weights 1,2,4; edges 0-1 w=2, 1-2 w=3,
// 0-2 w=1.
func weightedTriangle() *graph.Graph {
	b := graph.NewBuilder(3)
	b.SetNodeWeight(0, 1)
	b.SetNodeWeight(1, 2)
	b.SetNodeWeight(2, 4)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 3)
	b.AddEdge(0, 2, 1)
	return b.Build()
}

func TestRatingValues(t *testing.T) {
	g := weightedTriangle()
	cases := []struct {
		f    Func
		u, v int32
		w    int64
		want float64
	}{
		{Weight, 0, 1, 2, 2},
		{Expansion, 0, 1, 2, 2.0 / 3},
		{ExpansionStar, 0, 1, 2, 1},
		{ExpansionStar2, 0, 1, 2, 2},
		{ExpansionStar2, 1, 2, 3, 9.0 / 8},
		// Out(0)=3, Out(1)=5 → innerOuter(0,1) = 2/(3+5-4) = 0.5
		{InnerOuter, 0, 1, 2, 0.5},
		// Out(1)=5, Out(2)=4 → innerOuter(1,2) = 3/(5+4-6) = 1
		{InnerOuter, 1, 2, 3, 1},
	}
	for _, c := range cases {
		r := NewRater(c.f, g)
		got := r.Rate(c.u, c.v, c.w)
		if got != c.want {
			t.Errorf("%v(%d,%d) = %v, want %v", c.f, c.u, c.v, got, c.want)
		}
	}
}

func TestInnerOuterIsolatedPair(t *testing.T) {
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1, 5)
	g := b.Build()
	r := NewRater(InnerOuter, g)
	if got := r.Rate(0, 1, 5); got < 1e17 {
		t.Fatalf("isolated pair must rate near-infinite, got %v", got)
	}
}

func TestRatingSymmetry(t *testing.T) {
	g := weightedTriangle()
	for _, f := range All {
		r := NewRater(f, g)
		if r.Rate(0, 1, 2) != r.Rate(1, 0, 2) {
			t.Errorf("%v is not symmetric", f)
		}
	}
}

func TestExpansionPrefersLightNodes(t *testing.T) {
	// Same edge weight; endpoints of different node weight. All expansion
	// variants must prefer the light pair; plain Weight is indifferent.
	b := graph.NewBuilder(4)
	b.SetNodeWeight(0, 1)
	b.SetNodeWeight(1, 1)
	b.SetNodeWeight(2, 10)
	b.SetNodeWeight(3, 10)
	b.AddEdge(0, 1, 5)
	b.AddEdge(2, 3, 5)
	g := b.Build()
	for _, f := range []Func{Expansion, ExpansionStar, ExpansionStar2} {
		r := NewRater(f, g)
		if r.Rate(0, 1, 5) <= r.Rate(2, 3, 5) {
			t.Errorf("%v does not prefer light nodes", f)
		}
	}
	r := NewRater(Weight, g)
	if r.Rate(0, 1, 5) != r.Rate(2, 3, 5) {
		t.Error("Weight should ignore node weights")
	}
}

func TestStrings(t *testing.T) {
	names := map[Func]string{
		Weight: "weight", Expansion: "expansion", ExpansionStar: "expansion*",
		ExpansionStar2: "expansion*2", InnerOuter: "innerOuter",
	}
	for f, want := range names {
		if f.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(f), f.String(), want)
		}
	}
}

// TestRatingsAreFiniteOrPlusInf pins the contract matching's radix edge
// order relies on instead of guarding in its hot loop: on a valid graph —
// positive edge weights, non-negative node weights — every rating function
// yields a non-negative number or +Inf (both endpoints weightless), never
// NaN and never a negative value.
func TestRatingsAreFiniteOrPlusInf(t *testing.T) {
	b := graph.NewBuilder(5)
	for v, w := range []int64{0, 0, 1, 7, 1 << 40} {
		b.SetNodeWeight(int32(v), w)
	}
	weights := []int64{1, 2, 1 << 20, 1 << 40}
	for u := int32(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			b.AddEdge(u, v, weights[int(u+v)%len(weights)])
		}
	}
	g := b.Build()
	for _, f := range All {
		r := NewRater(f, g)
		sawInf := false
		for u := int32(0); u < 5; u++ {
			ws := g.AdjWeights(u)
			for i, v := range g.Adj(u) {
				got := r.Rate(u, v, ws[i])
				if math.IsNaN(got) || got < 0 {
					t.Errorf("%v(%d,%d) = %v: ratings must be non-negative or +Inf", f, u, v, got)
				}
				sawInf = sawInf || math.IsInf(got, 1)
			}
		}
		if (f == Expansion || f == ExpansionStar || f == ExpansionStar2) && !sawInf {
			t.Errorf("%v: the weightless pair {0,1} should rate +Inf", f)
		}
	}
}

// TestInnerOuterDegreesAboveFloorOnCrew sums innerOuter's weighted degrees of
// a graph past the graph.ParallelRanges floor as one range, on goroutines
// started for the call (one range at GOMAXPROCS 1) and on crews of two and
// three members, and expects WeightedDegree for every node each time.
func TestInnerOuterDegreesAboveFloorOnCrew(t *testing.T) {
	const n = 4096
	var l graph.EdgeList
	for v := range n {
		for d := 1; d <= 6; d++ {
			l.U, l.V, l.W = append(l.U, int32(v)), append(l.V, int32((v+d*d)%n)), append(l.W, int64(v%7+d))
		}
	}
	w := make([]int64, n)
	for i := range w {
		w[i] = 1
	}
	g, err := graph.FromEdgeList(w, l)
	if err != nil {
		t.Fatal(err)
	}
	one, two, three := par.Start(1, 0), par.Start(2, par.Spin), par.Start(3, 0)
	defer two.Stop()
	defer three.Stop()
	for name, run := range map[string]*par.Crew{"one member": one, "nil": nil, "two members": two, "three members": three} {
		if run.Members() > 1 && graph.ParallelRanges(run, 2*g.NumEdges()) < 2 {
			t.Fatalf("%s: %d half-edges do not split", name, 2*g.NumEdges())
		}
		wd := NewRaterOn(run, InnerOuter, g).wdeg
		for v := range int32(n) {
			if wd[v] != g.WeightedDegree(v) {
				t.Fatalf("%s: Out(%d) = %d, want %d", name, v, wd[v], g.WeightedDegree(v))
			}
		}
	}
}
