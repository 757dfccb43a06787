package matching

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rating"
	"repro/internal/rng"
)

// weightedPath builds a path with the given node weights and unit edges.
func weightedPath(weights []int64) *graph.Graph {
	b := graph.NewBuilder(len(weights))
	for v, w := range weights {
		b.SetNodeWeight(int32(v), w)
		if v > 0 {
			b.AddEdge(int32(v-1), int32(v), 1)
		}
	}
	return b.Build()
}

func TestBoundedRespectsCap(t *testing.T) {
	g := weightedPath([]int64{5, 5, 1, 1, 5, 5})
	for _, alg := range []Algorithm{SHEM, Greedy, GPA} {
		m := ComputeScratch(g, rating.NewRater(rating.Weight, g), alg, rng.New(1), 6, nil)
		if err := m.Validate(g); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		for v, u := range m {
			if u >= 0 && g.NodeWeight(int32(v))+g.NodeWeight(u) > 6 {
				t.Fatalf("%v: pair (%d,%d) exceeds cap", alg, v, u)
			}
		}
		// The middle pair (1,1) fits under the cap and must be matched by a
		// maximal matcher (both its heavy neighbors can only pair with it).
		if m[2] != 3 && m[2] != 1 && m[3] != 4 && m[3] != 2 {
			t.Fatalf("%v: light nodes unmatched: %v", alg, m)
		}
	}
}

func TestBoundedZeroIsUnbounded(t *testing.T) {
	g := weightedPath([]int64{100, 100, 100, 100})
	m := ComputeScratch(g, rating.NewRater(rating.Weight, g), GPA, rng.New(2), 0, nil)
	if m.Size() == 0 {
		t.Fatal("cap 0 must mean unbounded")
	}
}

func TestBoundedPropertyAllAlgorithms(t *testing.T) {
	master := rng.New(404)
	f := func(seed uint16) bool {
		r := master.Split(uint64(seed))
		n := 4 + r.Intn(30)
		b := graph.NewBuilder(n)
		for v := 0; v < n; v++ {
			b.SetNodeWeight(int32(v), int64(1+r.Intn(10)))
		}
		for e := 0; e < 3*n; e++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if u != v {
				b.AddEdge(u, v, int64(1+r.Intn(5)))
			}
		}
		g := b.Build()
		cap := int64(4 + r.Intn(12))
		for _, alg := range []Algorithm{SHEM, Greedy, GPA} {
			m := ComputeScratch(g, rating.NewRater(rating.ExpansionStar2, g), alg, r, cap, nil)
			if m.Validate(g) != nil {
				return false
			}
			for v, u := range m {
				if u >= 0 && g.NodeWeight(int32(v))+g.NodeWeight(u) > cap {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelBoundedRespectsCap(t *testing.T) {
	b := graph.NewBuilder(6)
	for v := int32(0); v < 6; v++ {
		b.SetNodeWeight(v, 4)
	}
	for v := int32(0); v < 5; v++ {
		b.AddEdge(v, v+1, 10)
	}
	g := b.Build()
	block := []int32{0, 0, 0, 1, 1, 1}
	m := ParallelScratch(g, rating.NewRater(rating.Weight, g), GPA, block, 2, 3, 7, nil)
	if err := m.Validate(g); err != nil {
		t.Fatal(err)
	}
	for v, u := range m {
		if u >= 0 && g.NodeWeight(int32(v))+g.NodeWeight(u) > 7 {
			t.Fatalf("gap/local pair (%d,%d) exceeds cap", v, u)
		}
	}
	if m.Size() != 0 {
		t.Fatal("all pairs weigh 8 > cap 7; matching must be empty")
	}
}
