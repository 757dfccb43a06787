package coarsen

import (
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mem"
	"repro/internal/par"
	"repro/internal/rating"
	"repro/internal/rng"
)

// referenceFineOrder is the numbering of a contraction without blocks, kept
// as the reference: every creator — an unmatched node or the smaller
// endpoint of a pair — takes the next coarse id in fine order.
func referenceFineOrder(m matching.Matching) []int32 {
	f2c := make([]int32, len(m))
	c := int32(0)
	for v, u := range m {
		if u < 0 || int(u) > v {
			f2c[v] = c
			if u >= 0 {
				f2c[u] = c
			}
			c++
		}
	}
	return f2c
}

// randomMatching matches every node, in a random order, to a random
// unmatched neighbour if it has one.
func randomMatching(g *graph.Graph, r *rng.RNG) matching.Matching {
	m := matching.NewEmpty(g.NumNodes())
	order := make([]int, g.NumNodes())
	r.PermInto(order)
	for _, v := range order {
		if m[v] >= 0 {
			continue
		}
		var free []int32
		for _, u := range g.Adj(int32(v)) {
			if m[u] < 0 && int(u) != v {
				free = append(free, u)
			}
		}
		if len(free) > 0 {
			u := free[r.Intn(len(free))]
			m[v], m[u] = u, int32(v)
		}
	}
	return m
}

// stitchOf contracts g by m the way a distributed level with the node
// distribution blocks does: each PE numbers its coarse nodes over an
// in-process exchanger (ContractSubgraph, on its share of m), and the
// coordinator stitches the parts.
func stitchOf(g *graph.Graph, m matching.Matching, blocks []int32, pes int) (*graph.Graph, []int32) {
	sgs := dist.ExtractAll(g, blocks, pes)
	ms := make([]matching.Matching, pes)
	for pe, sg := range sgs {
		ms[pe] = matching.NewEmpty(sg.Local.NumNodes())
		for lv := range sg.NumOwned {
			if u := m[sg.ToGlobal(int32(lv))]; u >= 0 {
				lu, ok := sg.ToLocal(u)
				if !ok {
					panic("partner outside the ghost layer")
				}
				ms[pe][lv] = lu
			}
		}
	}
	return contractDistributed(g, sgs, ms, dist.NewExchanger(pes))
}

// sortedRows returns g with every row sorted by neighbour, the form the
// stitch builds.
func sortedRows(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	n := int32(g.NumNodes())
	xadj, adj, ewgt := []int32{0}, []int32{}, []int64{}
	var rs graph.RowSorter
	for v := range n {
		a, w := slices.Clone(g.Adj(v)), slices.Clone(g.AdjWeights(v))
		rs.Sort(a, w)
		adj, ewgt = append(adj, a...), append(ewgt, w...)
		xadj = append(xadj, int32(len(adj)))
	}
	sg, err := graph.FromCSR(xadj, adj, ewgt, slices.Clone(g.NodeWeights()))
	if err != nil {
		t.Fatal(err)
	}
	if c := g.CoordSlices(); len(c) == 3 {
		sg.SetCoords3(c[0], c[1], c[2])
	} else if len(c) == 2 {
		sg.SetCoords(c[0], c[1])
	}
	return sg
}

// TestContractNumbersLikeTheStitch pins the one numbering rule of every
// contraction: coarse ids block-major, ascending creator id within a block,
// a pair's coarse node in its smaller endpoint's block. For the same
// matching and node distribution, the shared contraction must build the map
// of the distributed level's stitch, and the same graph once its rows are
// sorted — over 2D and 3D meshes and a contracted weighted level, GPA and
// random matchings, the distributions of dist.Assign and random ones that
// leave blocks empty, several PE counts and worker counts whose node ranges
// split the levels. Without blocks it must number in fine order.
func TestContractNumbersLikeTheStitch(t *testing.T) {
	crew := par.Start(4, par.Spin)
	defer crew.Stop()
	rgg := gen.RGG(13, 3)
	contracted, _ := Contract(rgg, randomMatching(rgg, rng.New(5)))
	graphs := map[string]*graph.Graph{"rgg": rgg, "delaunay": gen.DelaunayX(12, 4), "contracted": contracted}
	r := rng.New(48)
	for name, g := range graphs {
		if graph.ParallelRanges(crew, 2*g.NumEdges()) < 4 {
			t.Fatalf("%s: %d half-edges split into fewer than four node ranges", name, 2*g.NumEdges())
		}
		matchings := map[string]matching.Matching{
			"gpa":    matching.ComputeScratch(g, rating.NewRater(rating.ExpansionStar2, g), matching.GPA, rng.New(7), 0, nil),
			"random": randomMatching(g, r),
		}
		for mname, m := range matchings {
			refMap := referenceFineOrder(m)
			nc := slices.Max(refMap) + 1
			refGraph, _ := Stitch(g, []*PEContraction{{NumCoarse: nc, FineGlobal: identity(g.NumNodes()), FineCoarse: refMap}})
			for _, workers := range []int{1, 2, 4} {
				what := name + "/" + mname
				cg, f2c := ContractWith(g, m, Options{Workers: workers, Arena: mem.NewArena(), Crew: crew})
				if !slices.Equal(f2c, refMap) {
					t.Fatalf("%s workers=%d, no blocks: the map is not the fine-order numbering", what, workers)
				}
				if d := graph.Diff(sortedRows(t, cg), refGraph); d != "" {
					t.Fatalf("%s workers=%d, no blocks: %s", what, workers, d)
				}
			}
			for _, pes := range []int{2, 3, 8, 16} {
				random := make([]int32, g.NumNodes())
				for v := range random {
					random[v] = int32(r.Intn(pes/2+1)) * 2 % int32(pes) // the odd blocks stay empty
				}
				distributions := map[string][]int32{
					"rcb":    dist.Assign(g, dist.StrategyRCB, pes),
					"ranges": dist.Assign(g, dist.StrategyRanges, pes),
					"random": random,
				}
				for dname, blocks := range distributions {
					want, wantMap := stitchOf(g, m, blocks, pes)
					for _, workers := range []int{1, 2, 4} {
						cg, f2c := ContractWith(g, m, Options{Workers: workers, Arena: mem.NewArena(), Crew: crew, Blocks: blocks, PEs: pes})
						if !slices.Equal(f2c, wantMap) {
							i := 0
							for f2c[i] == wantMap[i] {
								i++
							}
							t.Fatalf("%s/%s/%s pes=%d workers=%d: node %d → coarse %d, the stitch says %d", name, mname, dname, pes, workers, i, f2c[i], wantMap[i])
						}
						if d := graph.Diff(sortedRows(t, cg), want); d != "" {
							t.Fatalf("%s/%s/%s pes=%d workers=%d: %s", name, mname, dname, pes, workers, d)
						}
					}
				}
			}
		}
	}
}

// identity is the fine ids 0 … n-1: one part mapping every node.
func identity(n int) []int32 {
	ids := make([]int32, n)
	for v := range ids {
		ids[v] = int32(v)
	}
	return ids
}
