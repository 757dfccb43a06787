// Package part provides the k-way partition representation together with the
// quotient graph Q and its edge colorings (§5, Figure 1): the nodes of Q are
// the blocks of the partition, its edges connect blocks with cut edges
// between them, and the matchings induced by an edge coloring of Q tell the
// parallel refinement which pairs of blocks may be refined concurrently.
//
// The BoundaryIndex keeps, per block, the nodes on its boundary, and, on a
// level whose long rows hold much of its boundary, per boundary node a row
// grouped by the blocks of its neighbours, so that the pair (a, b) reads a
// hub's ties to a and b without scanning its row. A move between a and b
// marks every neighbour's row stale in a and b; a pair trusts a row only
// where it is not stale for the pair's own two blocks, which no concurrent
// pair can change, and a trusted row yields exactly what a full scan would,
// so refinement's bytes do not depend on the grouping.
package part

import (
	"fmt"

	"repro/internal/graph"
)

// Partition is a k-way partition of the nodes of a graph together with the
// balance bookkeeping of §2. Block[v] is the block of node v in [0, K).
type Partition struct {
	G     *graph.Graph
	K     int
	Eps   float64 // allowed imbalance, e.g. 0.03
	Block []int32

	weights []int64 // block weights, maintained incrementally
	lmax    int64
}

// New returns a partition with every node in block 0.
func New(g *graph.Graph, k int, eps float64) *Partition {
	p := &Partition{
		G:       g,
		K:       k,
		Eps:     eps,
		Block:   make([]int32, g.NumNodes()),
		weights: make([]int64, k),
	}
	p.weights[0] = g.TotalNodeWeight()
	p.lmax = ComputeLmax(g, k, eps)
	return p
}

// FromBlocks wraps an existing block assignment (which is adopted, not
// copied).
//
//kappa:invariant block arrays come from this package's own partitions or decoded wire payloads that validate length
func FromBlocks(g *graph.Graph, k int, eps float64, block []int32) *Partition {
	if len(block) != g.NumNodes() {
		panic("part: block array has wrong length")
	}
	p := &Partition{G: g, K: k, Eps: eps, Block: block, weights: make([]int64, k)}
	for v, b := range block {
		p.weights[b] += g.NodeWeight(int32(v))
	}
	p.lmax = ComputeLmax(g, k, eps)
	return p
}

// ComputeLmax evaluates the balance bound Lmax = (1+ε)·c(V)/k + max_v c(v)
// of §2.
func ComputeLmax(g *graph.Graph, k int, eps float64) int64 {
	return int64((1+eps)*float64(g.TotalNodeWeight())/float64(k)) + g.MaxNodeWeight()
}

// Lmax returns the maximum allowed block weight.
func (p *Partition) Lmax() int64 { return p.lmax }

// SetLmax overrides the balance bound. Recursive bisection uses this to
// express per-side bounds when the two sides have unequal target weights.
func (p *Partition) SetLmax(v int64) { p.lmax = v }

// BlockWeight returns c(V_b).
func (p *Partition) BlockWeight(b int32) int64 { return p.weights[b] }

// Move reassigns node v to block to, updating block weights.
func (p *Partition) Move(v int32, to int32) {
	from := p.Block[v]
	if from == to {
		return
	}
	w := p.G.NodeWeight(v)
	p.weights[from] -= w
	p.weights[to] += w
	p.Block[v] = to
}

// Cut returns the total weight of edges crossing between blocks.
func (p *Partition) Cut() int64 {
	var cut int64
	for v := int32(0); v < int32(p.G.NumNodes()); v++ {
		adj := p.G.Adj(v)
		ws := p.G.AdjWeights(v)
		for i, u := range adj {
			if u > v && p.Block[u] != p.Block[v] {
				cut += ws[i]
			}
		}
	}
	return cut
}

// MaxBlockWeight returns the weight of the heaviest block.
func (p *Partition) MaxBlockWeight() int64 {
	max := int64(0)
	for _, w := range p.weights {
		if w > max {
			max = w
		}
	}
	return max
}

// Imbalance returns max_b c(V_b) / (c(V)/k); the paper reports this as
// "balance" (1.03 means 3% over the average).
func (p *Partition) Imbalance() float64 {
	avg := float64(p.G.TotalNodeWeight()) / float64(p.K)
	if avg == 0 {
		return 1
	}
	return float64(p.MaxBlockWeight()) / avg
}

// Feasible reports whether every block respects Lmax.
func (p *Partition) Feasible() bool {
	for _, w := range p.weights {
		if w > p.lmax {
			return false
		}
	}
	return true
}

// Validate checks internal consistency: block range, weight bookkeeping.
func (p *Partition) Validate() error {
	if len(p.Block) != p.G.NumNodes() {
		return fmt.Errorf("part: block array length %d != n %d", len(p.Block), p.G.NumNodes())
	}
	fresh := make([]int64, p.K)
	for v, b := range p.Block {
		if b < 0 || int(b) >= p.K {
			return fmt.Errorf("part: node %d in block %d outside [0,%d)", v, b, p.K)
		}
		fresh[b] += p.G.NodeWeight(int32(v))
	}
	for b := range fresh {
		if fresh[b] != p.weights[b] {
			return fmt.Errorf("part: block %d weight cache %d != actual %d", b, p.weights[b], fresh[b])
		}
	}
	return nil
}

// BoundaryNodes returns all nodes with at least one neighbor in another
// block, in node order: the marks of a one-shot BoundaryIndex.
func (p *Partition) BoundaryNodes() []int32 {
	x := NewBoundaryIndex(p)
	total := 0
	for _, list := range x.lists {
		total += len(list)
	}
	out := make([]int32, 0, total)
	for v, marked := range x.in {
		if marked {
			out = append(out, int32(v))
		}
	}
	return out
}

// ExternalDegree returns the number of distinct foreign blocks adjacent to
// block b's boundary; it is reported by examples as a halo statistic.
func (p *Partition) ExternalDegree(b int32) int {
	seen := make(map[int32]bool)
	for v := int32(0); v < int32(p.G.NumNodes()); v++ {
		if p.Block[v] != b {
			continue
		}
		for _, u := range p.G.Adj(v) {
			if p.Block[u] != b {
				seen[p.Block[u]] = true
			}
		}
	}
	return len(seen)
}
