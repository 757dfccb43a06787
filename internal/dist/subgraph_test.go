package dist

import (
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestExtractGhostRoundTrip(t *testing.T) {
	g := gen.Grid2D(16, 16)
	assign := IndexRanges(g.NumNodes(), 4)
	for _, s := range ExtractAll(g, assign, 4) {
		if s.Local.NumNodes() == 0 {
			t.Fatalf("PE %d: empty subgraph", s.PE)
		}
		if err := s.Local.Validate(); err != nil {
			t.Fatalf("PE %d: invalid local graph: %v", s.PE, err)
		}
		for li := int32(0); int(li) < s.Local.NumNodes(); li++ {
			global := s.ToGlobal(li)
			back, ok := s.ToLocal(global)
			if !ok || back != li {
				t.Fatalf("PE %d: round trip %d -> %d -> (%d,%v)", s.PE, li, global, back, ok)
			}
			if (int(li) >= s.NumOwned) != (assign[global] != s.PE) {
				t.Fatalf("PE %d: ghost flag wrong for local %d (global %d)", s.PE, li, global)
			}
			if s.Local.NodeWeight(li) != g.NodeWeight(global) {
				t.Fatalf("PE %d: node weight mismatch at local %d", s.PE, li)
			}
		}
		for gi, owner := range s.GhostOwner {
			global := s.ToGlobal(int32(s.NumOwned + gi))
			if assign[global] != owner {
				t.Fatalf("PE %d: ghost %d owner recorded %d, assignment says %d", s.PE, gi, owner, assign[global])
			}
			if owner == s.PE {
				t.Fatalf("PE %d: ghost %d owned by itself", s.PE, gi)
			}
		}
	}
}

// TestExtractEdgeConservation: every global edge appears in the subgraph of
// each endpoint's owner — internal edges in exactly one subgraph, cut edges
// in exactly two (once per side) — and no subgraph carries ghost–ghost edges.
func TestExtractEdgeConservation(t *testing.T) {
	g := gen.RGG(10, 5)
	pes := 5
	x, y := g.Coords()
	assign := rcbScratch([][]float64{x, y}, nil, pes, nil)
	internal := g.NumEdges() - int(countCut(g, assign))
	cut := int(countCut(g, assign))

	totalLocal, totalCross := 0, 0
	for _, s := range ExtractAll(g, assign, pes) {
		for v := int32(0); int(v) < s.Local.NumNodes(); v++ {
			for _, u := range s.Local.Adj(v) {
				if u <= v {
					continue
				}
				if int(v) >= s.NumOwned && int(u) >= s.NumOwned {
					t.Fatalf("PE %d: ghost-ghost edge {%d,%d}", s.PE, v, u)
				}
				gv, gu := s.ToGlobal(v), s.ToGlobal(u)
				if w := g.EdgeWeightTo(gv, gu); w == 0 {
					t.Fatalf("PE %d: local edge {%d,%d} has no global counterpart", s.PE, v, u)
				}
				if int(v) >= s.NumOwned || int(u) >= s.NumOwned {
					totalCross++
				} else {
					totalLocal++
				}
			}
		}
	}
	if totalLocal != internal {
		t.Errorf("internal edges: subgraphs carry %d, global graph has %d", totalLocal, internal)
	}
	if totalCross != 2*cut {
		t.Errorf("cut edges: subgraphs carry %d halves, want %d", totalCross, 2*cut)
	}
}

// countCut counts cross-PE undirected edges (unweighted).
func countCut(g *graph.Graph, assign []int32) int64 {
	var cut int64
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		for _, u := range g.Adj(v) {
			if u > v && assign[v] != assign[u] {
				cut++
			}
		}
	}
	return cut
}

func TestExtractCoordsAndEmptyPE(t *testing.T) {
	g := gen.Grid2D(8, 8)
	// Assign everything to PE 0: PE 1's subgraph is empty but well-formed.
	assign := make([]int32, g.NumNodes())
	subs := ExtractAll(g, assign, 2)
	if subs[0].Local.NumNodes() != g.NumNodes() || subs[0].NumGhosts() != 0 {
		t.Errorf("PE 0 should own the whole graph")
	}
	if subs[0].Local.NumEdges() != g.NumEdges() {
		t.Errorf("PE 0 has %d edges, want %d", subs[0].Local.NumEdges(), g.NumEdges())
	}
	if subs[0].Local.HasCoords() {
		t.Errorf("a shard carries no coordinates: no per-PE kernel reads them")
	}
	if subs[1].Local.NumNodes() != 0 {
		t.Errorf("PE 1 should be empty, has %d nodes", subs[1].Local.NumNodes())
	}
}

// TestNewSubgraphRejectsMalformed: every decoded shard goes through
// NewSubgraph, so it is where the invariants the per-PE kernels rely on are
// enforced — above all that owned global ids ascend strictly (contraction
// decides pair ownership by comparing local ids, ToLocal binary-searches
// them); a shard violating one used to contract silently wrong.
func TestNewSubgraphRejectsMalformed(t *testing.T) {
	// A path 0-1-2-3 (local ids): three owned nodes and one ghost.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	local := b.Build()
	for _, tc := range []struct {
		name       string
		owned      int
		l2g, ghost []int32
		want       string // "" = accepted
	}{
		{"well formed", 3, []int32{4, 7, 9, 2}, []int32{1}, ""},
		{"owned count negative", -1, []int32{4, 7, 9, 2}, []int32{1}, "owned count"},
		{"owned count past n", 5, []int32{4, 7, 9, 2}, nil, "owned count"},
		{"short id map", 3, []int32{4, 7, 9}, []int32{1}, "id map"},
		{"short ghost owners", 3, []int32{4, 7, 9, 2}, nil, "ghost owner list"},
		{"owned descending", 3, []int32{7, 4, 9, 2}, []int32{1}, "not strictly ascending"},
		{"owned repeated", 3, []int32{4, 4, 9, 2}, []int32{1}, "not strictly ascending"},
		{"ghost is an owned id", 3, []int32{4, 7, 9, 7}, []int32{1}, "appears twice"},
		{"ghost repeated", 2, []int32{4, 7, 2, 2}, []int32{1, 1}, "appears twice"},
	} {
		sg, err := NewSubgraph(0, local, tc.owned, tc.l2g, tc.ghost)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		case tc.want == "":
			for lv, gv := range tc.l2g {
				if back, ok := sg.ToLocal(gv); !ok || int(back) != lv {
					t.Errorf("%s: ToLocal(%d) = %d, %v; want %d", tc.name, gv, back, ok, lv)
				}
			}
			if _, ok := sg.ToLocal(5); ok {
				t.Errorf("%s: ToLocal finds an id the shard does not hold", tc.name)
			}
		}
	}
}

// TestBoundaryPeersFlat checks the cached flat peer lists against a direct
// recomputation: distinct ghost owners per owned node, ascending.
func TestBoundaryPeersFlat(t *testing.T) {
	g := gen.RGG(9, 3)
	const pes = 5
	x, y := g.Coords()
	for _, s := range ExtractAll(g, rcbScratch([][]float64{x, y}, nil, pes, nil), pes) {
		off, peers := s.BoundaryPeers()
		if off2, peers2 := s.BoundaryPeers(); &off2[0] != &off[0] || len(peers2) != len(peers) {
			t.Fatalf("PE %d: second call recomputed the lists", s.PE)
		}
		for lv := int32(0); lv < int32(s.NumOwned); lv++ {
			want := map[int32]bool{}
			for _, lu := range s.Local.Adj(lv) {
				if int(lu) >= s.NumOwned {
					want[s.GhostOwner[int(lu)-s.NumOwned]] = true
				}
			}
			got := peers[off[lv]:off[lv+1]]
			if len(got) != len(want) {
				t.Fatalf("PE %d node %d: peers %v, want the %d owners %v", s.PE, lv, got, len(want), want)
			}
			for i, q := range got {
				if !want[q] || (i > 0 && got[i-1] >= q) {
					t.Fatalf("PE %d node %d: peers %v not the ascending distinct owners %v", s.PE, lv, got, want)
				}
			}
		}
	}
}
