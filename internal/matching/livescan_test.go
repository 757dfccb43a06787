package matching

import (
	"math"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/rating"
	"repro/internal/rng"
)

// referenceGreedyEdges is greedyEdges scanning every edge in the full order,
// edgeOrder: the reference the live scan is held to.
func referenceGreedyEdges(g *graph.Graph, edges []Edge, m Matching, rated []float64, maxPair int64) {
	order := edgeOrder(edges, nil)
	for _, o := range order {
		e := &edges[mem.KeyedIdx(o)]
		if maxPair > 0 && g.NodeWeight(e.U)+g.NodeWeight(e.V) > maxPair {
			continue
		}
		if m[e.U] < 0 && m[e.V] < 0 {
			m[e.U] = e.V
			m[e.V] = e.U
			if rated != nil {
				rated[e.U], rated[e.V] = e.R, e.R
			}
		}
	}
}

// scanLevel is one graph of FuzzLiveScanMatchesFullOrder: level 0 of a
// generator, unit weights, or the weighted level a GPA matching contracts it
// to.
func scanLevel(kind, level uint8) *graph.Graph {
	var g *graph.Graph
	switch kind % 5 {
	case 0:
		g = gen.RGG(8, 3)
	case 1:
		g = gen.Grid2D(14, 11)
	case 2:
		g = gen.DelaunayX(8, 5)
	case 3:
		g = gen.PrefAttach(250, 3, 7)
	default:
		g = gen.RMAT(8, 6, 9)
	}
	if level%2 == 1 {
		g = contractForTest(g, ComputeScratch(g, rating.NewRater(rating.ExpansionStar2, g), GPA, rng.New(11), 0, nil))
	}
	return g
}

// scanSet is one node set a local phase matches: nodes of g in block p
// (nil = every node of g, all in block 0).
type scanSet struct {
	g            *graph.Graph
	nodes, block []int32
	p            int32
}

// scanSets returns the node sets of one of the three local phases on g: the
// whole graph (ComputeScratch), each block of a prepartition into pes blocks
// (Parallel), or each PE's owned prefix of its extracted subgraph, the ghosts
// labelled by their owners (MatchSubgraph).
func scanSets(g *graph.Graph, kind uint8, pes int) []scanSet {
	n := g.NumNodes()
	switch kind % 3 {
	case 0:
		return []scanSet{{g, nil, make([]int32, n), 0}}
	case 1:
		assign := dist.Assign(g, dist.StrategyAuto, pes)
		sets := make([]scanSet, pes)
		for p := range sets {
			sets[p] = scanSet{g: g, block: assign, p: int32(p)}
		}
		for v, p := range assign {
			sets[p].nodes = append(sets[p].nodes, int32(v))
		}
		return sets
	default:
		var sets []scanSet
		for _, sg := range dist.ExtractAll(g, dist.Assign(g, dist.StrategyAuto, pes), pes) {
			nodes, owner := make([]int32, sg.NumOwned), make([]int32, sg.Local.NumNodes())
			for i := range nodes {
				nodes[i], owner[i] = int32(i), sg.PE
			}
			copy(owner[sg.NumOwned:], sg.GhostOwner)
			sets = append(sets, scanSet{sg.Local, nodes, owner, sg.PE})
		}
		return sets
	}
}

// FuzzLiveScanMatchesFullOrder runs the local phase — GPA or Greedy over the
// live scan — and the full-order scan of the same edges (referenceGPAEdges,
// referenceGreedyEdges) over generator × level 0 or a contracted level ×
// every rating × pair bound × node set: the whole graph, Parallel's blocks
// and MatchSubgraph's owned prefixes. Level 0 of a unit-weight graph under
// most ratings makes every rating equal. The matchings and the carried
// ratings must be equal bit for bit.
func FuzzLiveScanMatchesFullOrder(f *testing.F) {
	for kind := range uint8(5) {
		for set := range uint8(3) {
			f.Add(kind, kind+set, kind*set, set%2, set, kind+1, uint64(kind)*3+uint64(set))
		}
	}
	f.Fuzz(func(t *testing.T, kind, level, rf, alg, set, bound uint8, seed uint64) {
		g := scanLevel(kind, level)
		fn := rating.All[int(rf)%len(rating.All)]
		a := []Algorithm{GPA, Greedy}[alg%2]
		maxPair := []int64{0, 2, 2 * g.MaxNodeWeight(), 3 * g.TotalNodeWeight() / int64(g.NumNodes())}[bound%4]
		for i, s := range scanSets(g, set, 2+int(seed%7)) {
			n := s.g.NumNodes()
			got, want := NewEmpty(n), NewEmpty(n)
			gotR, wantR := make([]float64, n), make([]float64, n)
			var edges []Edge
			localPhase(s.g, rating.NewRater(fn, s.g), a, rng.NewStream(seed, uint64(i)), s.nodes, s.block, s.p, &edges, got, gotR, maxPair, staleArena(n))
			if a == GPA {
				referenceGPAEdges(s.g, s.nodes, edges, want, wantR, maxPair, nil)
			} else {
				referenceGreedyEdges(s.g, edges, want, wantR, maxPair)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%v/%v set %d of kind %d, maxPair %d: the live scan matched %v, the full order %v", a, fn, i, set%3, maxPair, got, want)
			}
			for v := range wantR {
				if math.Float64bits(gotR[v]) != math.Float64bits(wantR[v]) {
					t.Fatalf("%v/%v set %d of kind %d, maxPair %d: node %d carries rating %v, the full order %v", a, fn, i, set%3, maxPair, v, gotR[v], wantR[v])
				}
			}
		}
	})
}
