package matching

import (
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rating"
)

// runDistributed extracts subgraphs for assign, runs the distributed matcher
// and returns the per-PE matchings (local ids: owned nodes first in ascending
// global order, then ghosts), each validated against its PE's local graph.
func runDistributed(t *testing.T, g *graph.Graph, assign []int32, pes int, rf rating.Func, alg Algorithm, seed uint64, maxPair int64, boundary bool) []Matching {
	t.Helper()
	sgs := dist.ExtractAll(g, assign, pes)
	ms := DistributedBounded(sgs, dist.NewExchanger(pes), rf, alg, seed, maxPair, boundary)
	for pe, m := range ms {
		if err := m.Validate(sgs[pe].Local); err != nil {
			t.Fatalf("PE %d: distributed matching invalid: %v", pe, err)
		}
	}
	return ms
}

// TestDistributedMutualProposal builds the worked example of the two-phase
// boundary resolution: a cut edge that is the best edge of both endpoints,
// so both PEs propose it to each other in the same round; the mutual
// proposals must be accepted and the lighter local matches dissolved.
func TestDistributedMutualProposal(t *testing.T) {
	// PE 0 owns {0,1}, PE 1 owns {2,3}. Edge weights: 0-1 and 2-3 are light
	// internal edges (weight 1); the cut edge 1-2 is heavy (weight 10).
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 10)
	b.AddEdge(2, 3, 1)
	g := b.Build()
	assign := []int32{0, 0, 1, 1}

	// Local ids: PE 0 sees {0,1,ghost 2} as 0,1,2; PE 1 sees {2,3,ghost 1}.
	ms := runDistributed(t, g, assign, 2, rating.Weight, GPA, 7, 0, true)
	if ms[0][1] != 2 || ms[1][0] != 2 {
		t.Fatalf("cut edge {1,2} not matched on both PEs: %v", ms)
	}
	if ms[0][0] != -1 || ms[1][1] != -1 {
		t.Fatalf("local matches not dissolved: %v", ms)
	}

	// Without the boundary phase the cut edge must stay unmatched and the
	// internal edges win.
	ms = runDistributed(t, g, assign, 2, rating.Weight, GPA, 7, 0, false)
	if ms[0][0] != 1 || ms[1][0] != 1 {
		t.Fatalf("boundary=false: want internal matches, got %v", ms)
	}
}

// TestDistributedEmptySubgraph gives one PE no nodes at all: the exchange
// rounds must stay in lockstep (no deadlock) and the result must still be a
// valid matching.
func TestDistributedEmptySubgraph(t *testing.T) {
	g := gen.Grid2D(8, 8)
	assign := make([]int32, g.NumNodes())
	for v := range assign {
		// PEs 0 and 2 share the nodes; PE 1 owns nothing.
		assign[v] = int32(v%2) * 2
	}
	ms := runDistributed(t, g, assign, 3, rating.ExpansionStar2, GPA, 3, 0, true)
	if ms[0].Size()+ms[2].Size() == 0 || ms[1].Size() != 0 {
		t.Fatalf("pairs per PE = %d, %d, %d; want some, none, some", ms[0].Size(), ms[1].Size(), ms[2].Size())
	}
}

// TestDistributedBothEndpointsPropose covers the degenerate two-node-per-PE
// star where several boundary nodes compete for the same ghost: only mutual
// proposals may match, and the result must stay a valid matching.
func TestDistributedContestedGhost(t *testing.T) {
	// PEs 0,1,2 each own one spoke; PE 3 owns the hub. All spokes' best edge
	// is the hub, but the hub proposes to exactly one spoke per round.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 3, 5)
	b.AddEdge(1, 3, 5)
	b.AddEdge(2, 3, 5)
	g := b.Build()
	ms := runDistributed(t, g, []int32{0, 1, 2, 3}, 4, rating.Weight, GPA, 11, 0, true)
	if ms[3].Size() != 1 {
		t.Fatalf("hub can match exactly one spoke, got %d pairs", ms[3].Size())
	}
	if spokes := ms[0].Size() + ms[1].Size() + ms[2].Size(); spokes != 1 {
		t.Fatalf("%d spokes record a match, want the hub's one", spokes)
	}
}

// TestDistributedDeterminism reruns the distributed matcher on identical
// inputs: the result must be byte-identical, for every algorithm, including
// when the number of worker PEs exceeds GOMAXPROCS.
func TestDistributedDeterminism(t *testing.T) {
	g := gen.RGG(10, 42)
	for _, alg := range []Algorithm{GPA, SHEM, Greedy} {
		for _, pes := range []int{2, 7} {
			assign := dist.Assign(g, dist.StrategyRCB, pes)
			ref := runDistributed(t, g, assign, pes, rating.ExpansionStar2, alg, 99, 8, true)
			for rep := 0; rep < 3; rep++ {
				got := runDistributed(t, g, assign, pes, rating.ExpansionStar2, alg, 99, 8, true)
				for pe := range ref {
					if !slices.Equal(got[pe], ref[pe]) {
						t.Fatalf("%v/pes=%d: PE %d matching differs between runs", alg, pes, pe)
					}
				}
			}
		}
	}
}

// TestDistributedRespectsMaxPair checks the cluster-weight cap across the
// cut: a heavy cut edge whose endpoints together exceed the cap must not be
// matched, even though its rating would win.
func TestDistributedRespectsMaxPair(t *testing.T) {
	b := graph.NewBuilder(4)
	b.SetNodeWeight(1, 5)
	b.SetNodeWeight(2, 5)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 100)
	b.AddEdge(2, 3, 1)
	g := b.Build()
	ms := runDistributed(t, g, []int32{0, 0, 1, 1}, 2, rating.Weight, GPA, 1, 7, true)
	if ms[0][1] == 2 || ms[1][0] == 2 { // the ghost endpoint is local id 2 on both PEs
		t.Fatal("cut pair {1,2} exceeds maxPair=7 but was matched")
	}
}
