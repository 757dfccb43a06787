package part

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// quotientReference is Quotient as it stood before the boundary index: a
// walk over every edge accumulating into a map keyed by block pair.
func quotientReference(p *Partition) []QEdge {
	acc := make(map[uint64]int64)
	for v := int32(0); v < int32(p.G.NumNodes()); v++ {
		bv := p.Block[v]
		ws := p.G.AdjWeights(v)
		for i, u := range p.G.Adj(v) {
			bu := p.Block[u]
			if u <= v || bu == bv {
				continue
			}
			a, b := min(bv, bu), max(bv, bu)
			acc[uint64(a)<<32|uint64(uint32(b))] += ws[i]
		}
	}
	edges := make([]QEdge, 0, len(acc))
	for key, w := range acc {
		edges = append(edges, QEdge{int32(key >> 32), int32(uint32(key)), w})
	}
	slices.SortFunc(edges, func(a, b QEdge) int {
		return cmp.Or(cmp.Compare(a.A, b.A), cmp.Compare(a.B, b.B))
	})
	return edges
}

// distributedColoringReference is DistributedColoring as it stood before the
// allocation burn-down: map colour sets, per-round active and inbox slices.
func distributedColoringReference(k int, edges []QEdge, seed uint64) ([]int, int) {
	colors := make([]int, len(edges))
	for i := range colors {
		colors[i] = -1
	}
	incident := make([][]int, k)
	for i, e := range edges {
		incident[e.A] = append(incident[e.A], i)
		incident[e.B] = append(incident[e.B], i)
	}
	usedAt := make([]map[int]bool, k)
	rngs := make([]*rng.RNG, k)
	for b := 0; b < k; b++ {
		usedAt[b] = make(map[int]bool)
		rngs[b] = rng.NewStream(seed, uint64(b))
	}
	remaining := len(edges)
	maxColor := 0
	for round := 0; remaining > 0; round++ {
		active := make([]bool, k)
		for b := 0; b < k; b++ {
			active[b] = rngs[b].Bool()
		}
		type request struct {
			edge int
			from int32
		}
		inbox := make([][]request, k)
		for b := int32(0); b < int32(k); b++ {
			if !active[b] {
				continue
			}
			inc := incident[b][:0]
			for _, ei := range incident[b] {
				if colors[ei] < 0 {
					inc = append(inc, ei)
				}
			}
			incident[b] = inc
			if len(inc) == 0 {
				continue
			}
			ei := inc[rngs[b].Intn(len(inc))]
			other := edges[ei].A
			if other == b {
				other = edges[ei].B
			}
			inbox[other] = append(inbox[other], request{ei, b})
		}
		for b := int32(0); b < int32(k); b++ {
			if active[b] {
				continue
			}
			for _, req := range inbox[b] {
				if colors[req.edge] >= 0 {
					continue
				}
				c := 0
				for usedAt[b][c] || usedAt[req.from][c] {
					c++
				}
				colors[req.edge] = c
				usedAt[b][c] = true
				usedAt[req.from][c] = true
				if c+1 > maxColor {
					maxColor = c + 1
				}
				remaining--
			}
		}
	}
	return colors, maxColor
}

func TestDistributedColoringMatchesReference(t *testing.T) {
	r := rng.New(73)
	for i := 0; i < 300; i++ {
		k := 2 + r.Intn(80) // past 32 blocks the colour sets span two words
		edges := randomQuotient(k, []float64{0.05, 0.3, 1}[i%3], r)
		seed := r.Uint64()
		got, gotN := DistributedColoring(k, edges, seed)
		want, wantN := distributedColoringReference(k, edges, seed)
		if gotN != wantN || !slices.Equal(got, want) {
			t.Fatalf("k=%d, %d edges, seed %d: colors %v (%d), reference %v (%d)", k, len(edges), seed, got, gotN, want, wantN)
		}
	}
}

// randomPartition scatters a striped k-way partition of g.
func randomPartition(g *graph.Graph, k int, r *rng.RNG) *Partition {
	block := stripes(g, k)
	for v := range block {
		if r.Intn(4) == 0 {
			block[v] = int32(r.Intn(k))
		}
	}
	return FromBlocks(g, k, 0.5, block)
}

func TestQuotientMatchesReference(t *testing.T) {
	r := rng.New(74)
	for _, g := range []*graph.Graph{gen.RGG(10, 1), gen.RMAT(9, 8, 1), gen.Grid2D(20, 20), gen.Grid2D(1, 1)} {
		for _, k := range []int{1, 2, 7, 33} {
			p := randomPartition(g, k, r)
			if got, want := p.Quotient(), quotientReference(p); !slices.Equal(got, want) {
				t.Fatalf("n=%d k=%d: quotient %v, reference %v", g.NumNodes(), k, got, want)
			}
		}
	}
}

// TestBoundaryIndexFollowsMoves moves random boundary nodes between the two
// blocks of random pairs, the way a pair refinement does (Seeds, then moves,
// then Patch), and checks after every step that each list still holds its
// block's boundary exactly once and that the index answers the quotient.
func TestBoundaryIndexFollowsMoves(t *testing.T) {
	r := rng.New(75)
	g := gen.RGG(9, 4)
	const k = 5
	p := randomPartition(g, k, r)
	x := NewBoundaryIndex(p)
	for step := 0; step < 200; step++ {
		a := int32(r.Intn(k))
		b := (a + 1 + int32(r.Intn(k-1))) % k
		seeds := x.Seeds(nil, p.Block, a, b)
		if !slices.IsSorted(seeds) {
			t.Fatalf("step %d: seeds not in node order", step)
		}
		var moved []int32
		for _, v := range seeds {
			if r.Intn(3) == 0 {
				p.Move(v, a+b-p.Block[v])
				moved = append(moved, v)
			}
		}
		x.Patch(p.Block, a, b, moved)
		for blk := int32(0); blk < k; blk++ {
			var listed []int32
			for _, v := range x.List(blk) {
				if p.Block[v] == blk {
					listed = append(listed, v)
				}
			}
			slices.Sort(listed)
			var boundary []int32
			for _, v := range p.BoundaryNodes() {
				if p.Block[v] == blk {
					boundary = append(boundary, v)
				}
			}
			for _, v := range boundary {
				if _, ok := slices.BinarySearch(listed, v); !ok {
					t.Fatalf("step %d: boundary node %d missing from list %d", step, v, blk)
				}
			}
			if len(slices.Compact(slices.Clone(listed))) != len(listed) {
				t.Fatalf("step %d: list %d holds a node twice", step, blk)
			}
		}
		if got, want := x.Quotient(), quotientReference(p); !slices.Equal(got, want) {
			t.Fatalf("step %d: index quotient %v, reference %v", step, got, want)
		}
	}
}
