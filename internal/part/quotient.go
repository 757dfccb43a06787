package part

import (
	"math/bits"

	"repro/internal/rng"
)

// QEdge is an edge of the quotient graph Q: an unordered pair of blocks with
// at least one cut edge between them. A < B always holds.
type QEdge struct {
	A, B int32
	W    int64 // total weight of cut edges between the two blocks
}

// Quotient builds the quotient graph of the partition as an edge list sorted
// by (A, B). Its nodes are the K blocks. It is a one-shot use of the
// boundary index; refinement, which asks once per global iteration, keeps an
// index and calls BoundaryIndex.Quotient.
func (p *Partition) Quotient() []QEdge {
	return NewBoundaryIndex(p).Quotient()
}

// colorSets holds, per block, the set of colors already used at the block as
// a bitmask. An edge takes the smallest color free at both endpoints: at most
// deg(A)-1 + deg(B)-1 colors are taken there before it, so its color is at
// most deg(A)+deg(B)-2, and 2Δ bits per block suffice for a quotient of
// maximum degree Δ — not 2k, which for k blocks is k²/4 bytes in all.
type colorSets struct {
	words int
	bits  []uint64
}

// newColorSets sizes the sets of k blocks for a quotient of maximum degree
// at most maxDeg.
func newColorSets(k, maxDeg int) colorSets {
	words := (2*maxDeg + 63) / 64
	return colorSets{words, make([]uint64, k*words)}
}

// take returns the smallest color free at both a and b and marks it used at
// both.
func (c colorSets) take(a, b int32) int {
	sa := c.bits[int(a)*c.words : int(a+1)*c.words]
	sb := c.bits[int(b)*c.words : int(b+1)*c.words]
	for w := range sa {
		if free := ^(sa[w] | sb[w]); free != 0 {
			c := bits.TrailingZeros64(free)
			sa[w] |= 1 << c
			sb[w] |= 1 << c
			return w*64 + c
		}
	}
	//kappa:allow panicfree unreachable: 2k bits hold every color an edge of a k-node quotient can take
	panic("part: color set overflow")
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
// internal/core, which iterates the resulting color classes. All per-round
// state lives in a handful of slices sized once per call.
func DistributedColoring(k int, edges []QEdge, seed uint64) ([]int, int) {
	colors := make([]int, len(edges))
	for i := range colors {
		colors[i] = -1
	}
	// incident[start[b]:end[b]] = indices of the uncolored edges at block b,
	// in edge order; colored ones are pruned lazily by shrinking end[b].
	ints := make([]int, 3*k+1+2*len(edges))
	start, end, request := ints[:k+1], ints[k+1:2*k+1], ints[2*k+1:3*k+1]
	incident := ints[3*k+1:]
	for _, e := range edges {
		start[e.A+1]++
		start[e.B+1]++
	}
	maxDeg := 0
	for b := 0; b < k; b++ {
		maxDeg = max(maxDeg, start[b+1])
		start[b+1] += start[b]
		end[b] = start[b]
	}
	for i, e := range edges {
		incident[end[e.A]] = i
		end[e.A]++
		incident[end[e.B]] = i
		end[e.B]++
	}
	used := newColorSets(k, maxDeg)
	rngs := make([]rng.RNG, k)
	for b := range rngs {
		rngs[b].SeedStream(seed, uint64(b))
	}
	active := make([]bool, k)
	remaining := len(edges)
	maxColor := 0
	for remaining > 0 {
		for b := range active {
			active[b] = rngs[b].Bool()
		}
		// request[b] = the edge active PE b asks its other endpoint to color
		// this round, or -1.
		for b := int32(0); b < int32(k); b++ {
			request[b] = -1
			if !active[b] {
				continue
			}
			live := start[b]
			for _, ei := range incident[start[b]:end[b]] {
				if colors[ei] < 0 {
					incident[live] = ei
					live++
				}
			}
			end[b] = live
			if live > start[b] {
				request[b] = incident[start[b]+rngs[b].Intn(live-start[b])]
			}
		}
		// Requests are served in sender order. Senders are active and
		// receivers passive, so two requests share color sets only through a
		// common receiver, which then sees its inbox in sender order.
		for from := int32(0); from < int32(k); from++ {
			ei := request[from]
			if ei < 0 {
				continue
			}
			to := edges[ei].A
			if to == from {
				to = edges[ei].B
			}
			if active[to] {
				continue // active PEs reject requests
			}
			c := used.take(to, from)
			colors[ei] = c
			if c+1 > maxColor {
				maxColor = c + 1
			}
			remaining--
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
