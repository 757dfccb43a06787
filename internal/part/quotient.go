package part

import (
	"cmp"
	"slices"

	"repro/internal/rng"
)

// QEdge is an edge of the quotient graph Q: an unordered pair of blocks with
// at least one cut edge between them. A < B always holds.
type QEdge struct {
	A, B int32
	W    int64 // total weight of cut edges between the two blocks
}

// Quotient builds the quotient graph of the partition as an edge list sorted
// by (A, B). Its nodes are the K blocks.
func (p *Partition) Quotient() []QEdge {
	acc := make(map[uint64]int64)
	for v := int32(0); v < int32(p.G.NumNodes()); v++ {
		bv := p.Block[v]
		adj := p.G.Adj(v)
		ws := p.G.AdjWeights(v)
		for i, u := range adj {
			if u <= v {
				continue
			}
			bu := p.Block[u]
			if bu == bv {
				continue
			}
			a, b := bv, bu
			if a > b {
				a, b = b, a
			}
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

// GreedyColoring assigns each quotient edge the smallest color not yet used
// at either endpoint, scanning edges in the given order. It returns the
// per-edge colors and the number of colors used, which is at most 2Δ−1 for
// maximum quotient degree Δ.
func GreedyColoring(k int, edges []QEdge) ([]int, int) {
	used := make([]map[int]bool, k)
	for i := range used {
		used[i] = make(map[int]bool)
	}
	colors := make([]int, len(edges))
	maxColor := 0
	for i, e := range edges {
		c := 0
		for used[e.A][c] || used[e.B][c] {
			c++
		}
		colors[i] = c
		used[e.A][c] = true
		used[e.B][c] = true
		if c+1 > maxColor {
			maxColor = c + 1
		}
	}
	return colors, maxColor
}

// DistributedColoring runs the parallel randomized edge-coloring algorithm
// of §5.1: every PE (block) keeps a free-color list; in each round PEs flip
// an active/passive coin; an active PE picks a random uncolored incident
// edge and sends it with its free list to the other endpoint; a passive
// receiver colors the edge with the smallest color free at both endpoints.
// Requests arriving at active PEs are rejected and retried in a later round.
// The algorithm uses at most twice as many colors as an optimal edge
// coloring. This implementation simulates the synchronous rounds
// deterministically from the seed; the PE-parallel execution lives in
// internal/core, which iterates the resulting color classes.
func DistributedColoring(k int, edges []QEdge, seed uint64) ([]int, int) {
	colors := make([]int, len(edges))
	for i := range colors {
		colors[i] = -1
	}
	// incident[b] = indices of uncolored edges at block b.
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
			// Prune already-colored incident edges lazily.
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
				continue // active PEs reject requests
			}
			for _, req := range inbox[b] {
				if colors[req.edge] >= 0 {
					continue // a previous request this round colored it
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

// ColorClasses groups quotient edges by color; each class is a matching of
// Q, i.e. a set of block pairs that can be refined concurrently.
func ColorClasses(edges []QEdge, colors []int, numColors int) [][]QEdge {
	classes := make([][]QEdge, numColors)
	for i, e := range edges {
		classes[colors[i]] = append(classes[colors[i]], e)
	}
	return classes
}

// RandomPairSchedule is the alternative schedule of §5.1: instead of
// stepping through color classes, it repeatedly emits a random maximal
// matching of the yet-unprocessed quotient edges until every edge has been
// scheduled once. The paper found edge coloring slightly better; this
// variant is kept for the schedule ablation.
func RandomPairSchedule(k int, edges []QEdge, seed uint64) [][]QEdge {
	r := rng.New(seed)
	done := make([]bool, len(edges))
	remaining := len(edges)
	var rounds [][]QEdge
	for remaining > 0 {
		perm := r.Perm(len(edges))
		busy := make([]bool, k)
		var round []QEdge
		for _, i := range perm {
			if done[i] {
				continue
			}
			e := edges[i]
			if busy[e.A] || busy[e.B] {
				continue
			}
			busy[e.A], busy[e.B] = true, true
			done[i] = true
			remaining--
			round = append(round, e)
		}
		rounds = append(rounds, round)
	}
	return rounds
}
