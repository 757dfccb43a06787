// Package graph provides the weighted undirected graph data structure used by
// every stage of the partitioner.
//
// The representation is the static adjacency array ("forward-star") layout
// described in §5.2 of the paper: an edge array storing target nodes and edge
// weights, and a node array storing node weights and the start of the
// relevant segment in the edge array. Node ids are dense int32 values in
// [0, n). Every undirected edge {u, v} is stored twice, once in each
// direction; weights are int64 so that repeated contraction cannot overflow.
//
// Graphs may optionally carry 2D or 3D coordinates; the parallel coarsening
// phase uses them for geometric prepartitioning (recursive coordinate
// bisection over the available dimensions).
package graph

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/par"
)

// Graph is an immutable weighted undirected graph in CSR form. Construct one
// with a Builder, FromCSR, or the generators in internal/gen.
type Graph struct {
	xadj []int32 // n+1 offsets into adj/ewgt
	adj  []int32 // 2m neighbor ids
	ewgt []int64 // 2m edge weights (parallel to adj)
	nwgt []int64 // n node weights

	totalNodeWeight int64
	totalEdgeWeight int64 // each undirected edge counted once
	maxNodeWeight   int64

	// adjSorted records that every adjacency list is strictly increasing
	// (true for Builder output, detected by FromCSR), enabling the binary
	// search fast path of EdgeWeightTo. Shared-memory contraction keeps its
	// first-encounter adjacency order and stays on the linear scan.
	adjSorted bool

	wdegOnce sync.Once
	wdeg     []int64 // cached weighted degrees Out(v), see WeightedDegrees

	x, y []float64 // optional coordinates, len n or nil
	z    []float64 // optional third dimension, len n or nil (only with x, y)
}

// NumNodes returns n, the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nwgt) }

// NumEdges returns m, the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.adj) / 2 }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int32) int { return int(g.xadj[v+1] - g.xadj[v]) }

// NodeWeight returns c(v).
func (g *Graph) NodeWeight(v int32) int64 { return g.nwgt[v] }

// NodeWeights returns all node weights, indexed by node. Callers must not
// modify them.
func (g *Graph) NodeWeights() []int64 { return g.nwgt }

// TotalNodeWeight returns c(V).
func (g *Graph) TotalNodeWeight() int64 { return g.totalNodeWeight }

// TotalEdgeWeight returns ω(E) with each undirected edge counted once.
func (g *Graph) TotalEdgeWeight() int64 { return g.totalEdgeWeight }

// MaxNodeWeight returns max_v c(v); it appears in the balance constraint
// Lmax = (1+ε)·c(V)/k + max_v c(v).
func (g *Graph) MaxNodeWeight() int64 { return g.maxNodeWeight }

// Adj returns the neighbor ids of v as a shared slice; callers must not
// modify it.
func (g *Graph) Adj(v int32) []int32 { return g.adj[g.xadj[v]:g.xadj[v+1]] }

// AdjWeights returns the edge weights parallel to Adj(v); callers must not
// modify it.
func (g *Graph) AdjWeights(v int32) []int64 { return g.ewgt[g.xadj[v]:g.xadj[v+1]] }

// WeightedDegree returns Out(v) = Σ_{x∈Γ(v)} ω({v,x}).
func (g *Graph) WeightedDegree(v int32) int64 {
	var s int64
	for _, w := range g.AdjWeights(v) {
		s += w
	}
	return s
}

// WeightedDegrees returns the weighted degrees of every node, computed once
// per graph and cached; hot loops (edge ratings, FM gain seeds) read the
// cache instead of re-summing adjacency per query. Contraction pre-fills the
// cache of the coarse graph for free during the fill pass. The returned
// slice is shared; callers must not modify it. Safe for concurrent use.
func (g *Graph) WeightedDegrees() []int64 { return g.WeightedDegreesOn(nil) }

// WeightedDegreesOn is WeightedDegrees whose first call sums the node ranges
// of ParallelRanges as a batch on run.
func (g *Graph) WeightedDegreesOn(run *par.Crew) []int64 {
	g.wdegOnce.Do(func() {
		if g.wdeg != nil { // pre-filled at construction (SetWeightedDegrees)
			return
		}
		w := make([]int64, g.NumNodes())
		ranges := ParallelRanges(run, len(g.adj))
		run.Run(ranges, func(_, r int) {
			for v, hi := g.RangeStart(r, ranges), g.RangeStart(r+1, ranges); v < hi; v++ {
				var s int64
				for _, ew := range g.ewgt[g.xadj[v]:g.xadj[v+1]] {
					s += ew
				}
				w[v] = s
			}
		})
		g.wdeg = w
	})
	return g.wdeg
}

// RangeStart returns the first node of range r when the nodes are cut into
// ranges consecutive ranges of about equal half-edges, the split of every
// node-range pass sized by ParallelRanges; RangeStart(ranges, ranges) is
// NumNodes().
func (g *Graph) RangeStart(r, ranges int) int32 {
	if r >= ranges {
		return int32(g.NumNodes())
	}
	half := int64(len(g.adj))
	return int32(sort.Search(g.NumNodes(), func(v int) bool { return int64(g.xadj[v])*int64(ranges) >= half*int64(r) }))
}

// SetWeightedDegrees installs a precomputed weighted-degree array. It may
// only be called during construction, before the graph is shared between
// goroutines; contraction uses it to emit the coarse Out(v) values it
// already computed while summing coarse edge weights. w[v] must equal
// WeightedDegree(v) for every node.
//
//kappa:invariant construction-time length check; callers size the slice from the same graph
func (g *Graph) SetWeightedDegrees(w []int64) {
	if len(w) != g.NumNodes() {
		panic("graph: weighted-degree slice must have length n")
	}
	g.wdeg = w
}

// EdgeWeightTo returns ω({v,u}) or 0 if {v,u} is not an edge. On graphs with
// sorted adjacency (Builder output, METIS files — detected at construction)
// it binary-searches v's neighbor list; otherwise it falls back to a linear
// scan, which is fine where degrees are small (e.g. quotient graphs) but
// quadratic in degree when called for every neighbor of a high-degree coarse
// node — hot paths on contracted graphs should use scatter arrays instead.
//
//kappa:hotpath
func (g *Graph) EdgeWeightTo(v, u int32) int64 {
	adj := g.Adj(v)
	if g.adjSorted && len(adj) > 8 {
		lo, hi := 0, len(adj)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if adj[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(adj) && adj[lo] == u {
			return g.AdjWeights(v)[lo]
		}
		return 0
	}
	for i, t := range adj {
		if t == u {
			return g.AdjWeights(v)[i]
		}
	}
	return 0
}

// AdjSorted reports whether every adjacency list is strictly increasing, the
// precondition of the EdgeWeightTo binary-search fast path.
func (g *Graph) AdjSorted() bool { return g.adjSorted }

// HasCoords reports whether the graph carries coordinates (2D or 3D).
func (g *Graph) HasCoords() bool { return g.x != nil }

// CoordDims returns the number of coordinate dimensions: 0 (no coordinates),
// 2, or 3.
func (g *Graph) CoordDims() int {
	switch {
	case g.x == nil:
		return 0
	case g.z == nil:
		return 2
	default:
		return 3
	}
}

// Coord returns the first two coordinates of v; it panics if the graph has
// none.
func (g *Graph) Coord(v int32) (float64, float64) { return g.x[v], g.y[v] }

// Coord3 returns the coordinates of v with z = 0 for 2D graphs; it panics if
// the graph has no coordinates.
func (g *Graph) Coord3(v int32) (float64, float64, float64) {
	if g.z == nil {
		return g.x[v], g.y[v], 0
	}
	return g.x[v], g.y[v], g.z[v]
}

// SetCoords attaches 2D coordinates; both slices must have length n. The
// graph keeps references to the slices. Any previous third dimension is
// dropped.
//
//kappa:invariant construction-time length check; callers size the slices from the same graph
func (g *Graph) SetCoords(x, y []float64) {
	if len(x) != g.NumNodes() || len(y) != g.NumNodes() {
		panic("graph: coordinate slices must have length n")
	}
	g.x, g.y, g.z = x, y, nil
}

// SetCoords3 attaches 3D coordinates; all three slices must have length n.
// The graph keeps references to the slices.
//
//kappa:invariant construction-time length check; callers size the slices from the same graph
func (g *Graph) SetCoords3(x, y, z []float64) {
	if len(x) != g.NumNodes() || len(y) != g.NumNodes() || len(z) != g.NumNodes() {
		panic("graph: coordinate slices must have length n")
	}
	g.x, g.y, g.z = x, y, z
}

// Coords returns the first two coordinate slices (nil if absent). Callers
// must not modify them.
func (g *Graph) Coords() ([]float64, []float64) { return g.x, g.y }

// Coords3 returns all coordinate slices; z is nil for 2D graphs and all
// three are nil without coordinates. Callers must not modify them.
func (g *Graph) Coords3() ([]float64, []float64, []float64) { return g.x, g.y, g.z }

// CoordSlices returns the non-nil coordinate slices in dimension order —
// the input recursive coordinate bisection generalizes over. Empty without
// coordinates.
func (g *Graph) CoordSlices() [][]float64 {
	switch g.CoordDims() {
	case 3:
		return [][]float64{g.x, g.y, g.z}
	case 2:
		return [][]float64{g.x, g.y}
	default:
		return nil
	}
}

// FromCSR builds a graph directly from CSR arrays. The arrays are adopted,
// not copied. nwgt may be nil for unit node weights. FromCSR validates the
// structure (symmetry is checked only by Validate, which is O(m log d)).
func FromCSR(xadj []int32, adj []int32, ewgt []int64, nwgt []int64) (*Graph, error) {
	n := len(xadj) - 1
	if n < 0 {
		return nil, fmt.Errorf("graph: xadj must have length n+1 >= 1")
	}
	if xadj[0] != 0 || int(xadj[n]) != len(adj) || len(adj) != len(ewgt) {
		return nil, fmt.Errorf("graph: inconsistent CSR arrays")
	}
	for v := 0; v < n; v++ {
		if xadj[v] > xadj[v+1] {
			return nil, fmt.Errorf("graph: xadj not monotone at node %d", v)
		}
	}
	if nwgt == nil {
		nwgt = make([]int64, n)
		for i := range nwgt {
			nwgt[i] = 1
		}
	} else if len(nwgt) != n {
		return nil, fmt.Errorf("graph: nwgt must have length n")
	}
	g := &Graph{xadj: xadj, adj: adj, ewgt: ewgt, nwgt: nwgt, adjSorted: true}
	// One pass over the rows checks neighbour ranges, row order and weight
	// signs and sums the weights.
	for v := 0; v < n; v++ {
		prev := int32(-1)
		for i := xadj[v]; i < xadj[v+1]; i++ {
			t, w := adj[i], ewgt[i]
			if t < 0 || int(t) >= n {
				return nil, fmt.Errorf("graph: neighbor id %d out of range", t)
			}
			if t <= prev {
				g.adjSorted = false
			}
			prev = t
			if w <= 0 {
				return nil, fmt.Errorf("graph: non-positive edge weight %d", w)
			}
			g.totalEdgeWeight += w
		}
	}
	g.totalEdgeWeight /= 2
	for _, w := range nwgt {
		if w < 0 {
			return nil, fmt.Errorf("graph: negative node weight %d", w)
		}
		g.totalNodeWeight += w
		if w > g.maxNodeWeight {
			g.maxNodeWeight = w
		}
	}
	return g, nil
}

// CSRAggregates carries the precomputed per-graph facts FromCSRTrusted
// adopts alongside the CSR arrays: the totals FromCSR would re-scan 2m
// edges to derive, and whether the adjacency lists are strictly sorted
// (which enables the binary-search fast path of EdgeWeightTo). Its zero
// value with AdjSorted set is what an empty graph has; a loop that writes or
// validates a CSR adds each entry in as it passes.
type CSRAggregates struct {
	TotalNodeWeight int64
	TotalEdgeWeight int64 // each undirected edge counted once
	MaxNodeWeight   int64
	AdjSorted       bool
}

// FromCSRTrusted adopts CSR arrays with NO validation and NO scans: the
// caller vouches for structural validity and supplies the aggregates FromCSR
// would otherwise recompute, the adjacency-sorted flag included. It serves
// three kinds of caller. Contraction builds the coarse CSR into exactly-sized
// arrays and knows every total by construction. A loop that has just written
// or decoded the arrays, checking every entry as it went, has summed the
// aggregates on the way (the binary graph decoder, shard extraction,
// FromEdgeLists): FromCSR would make each of its checks a second time. And a
// graph whose arrays are views over a memory-mapped file:
// the shard store records the aggregates in its manifest at write time, and
// re-scanning the arrays here would page the whole mapping in — defeating
// the point of mapping it.
func FromCSRTrusted(xadj []int32, adj []int32, ewgt []int64, nwgt []int64, agg CSRAggregates) *Graph {
	return &Graph{
		xadj: xadj, adj: adj, ewgt: ewgt, nwgt: nwgt,
		totalNodeWeight: agg.TotalNodeWeight,
		totalEdgeWeight: agg.TotalEdgeWeight,
		maxNodeWeight:   agg.MaxNodeWeight,
		adjSorted:       agg.AdjSorted,
	}
}

// Validate checks structural invariants that FromCSR does not: no self
// loops, no parallel edges (adjacency lists strictly sorted after sorting),
// and symmetry of both adjacency and weights. Intended for tests and for
// checking external input files.
func (g *Graph) Validate() error {
	n := g.NumNodes()
	for v := int32(0); v < int32(n); v++ {
		adj := g.Adj(v)
		seen := make(map[int32]int64, len(adj))
		for i, u := range adj {
			if u == v {
				return fmt.Errorf("graph: self loop at node %d", v)
			}
			if _, dup := seen[u]; dup {
				return fmt.Errorf("graph: parallel edge {%d,%d}", v, u)
			}
			seen[u] = g.AdjWeights(v)[i]
		}
		for u, w := range seen {
			if g.EdgeWeightTo(u, v) != w {
				return fmt.Errorf("graph: asymmetric edge {%d,%d}", v, u)
			}
		}
	}
	return nil
}

// Builder accumulates undirected edges and produces a Graph. Parallel edges
// are merged by summing their weights; self loops are dropped. Builders are
// not safe for concurrent use.
type Builder struct {
	n       int
	nwgt    []int64
	us      []int32
	vs      []int32
	ws      []int64
	coord   bool
	x, y, z []float64
}

// NewBuilder returns a builder for a graph with n nodes and unit node
// weights.
func NewBuilder(n int) *Builder {
	nwgt := make([]int64, n)
	for i := range nwgt {
		nwgt[i] = 1
	}
	return &Builder{n: n, nwgt: nwgt}
}

// SetNodeWeight sets c(v).
func (b *Builder) SetNodeWeight(v int32, w int64) { b.nwgt[v] = w }

// SetCoord records 2D coordinates for v; the first call switches the builder
// to coordinate mode.
func (b *Builder) SetCoord(v int32, x, y float64) {
	if !b.coord {
		b.coord = true
		b.x = make([]float64, b.n)
		b.y = make([]float64, b.n)
	}
	b.x[v], b.y[v] = x, y
}

// SetCoord3 records 3D coordinates for v; the first call switches the
// builder to 3D coordinate mode. Mixing SetCoord and SetCoord3 leaves z = 0
// for the 2D calls.
func (b *Builder) SetCoord3(v int32, x, y, z float64) {
	b.SetCoord(v, x, y)
	if b.z == nil {
		b.z = make([]float64, b.n)
	}
	b.z[v] = z
}

// AddEdge records the undirected edge {u, v} with weight w. Self loops are
// ignored. Adding {u,v} twice (in any orientation) merges the weights.
//
//kappa:invariant callers validate ids and weights at the I/O boundary (graphio)
func (b *Builder) AddEdge(u, v int32, w int64) {
	if u == v {
		return
	}
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n))
	}
	if w <= 0 {
		panic("graph: edge weight must be positive")
	}
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
	b.ws = append(b.ws, w)
}

// Build produces the graph. The builder can not be reused afterwards.
//
//kappa:invariant AddEdge admitted only in-range ids and positive weights; a negative node weight or a weight sum past int64 is the caller's bug
func (b *Builder) Build() *Graph {
	g, err := FromEdgeLists(b.nwgt, []EdgeList{{U: b.us, V: b.vs, W: b.ws}})
	if err != nil {
		panic(err.Error())
	}
	if b.coord {
		if b.z != nil {
			g.SetCoords3(b.x, b.y, b.z)
		} else {
			g.SetCoords(b.x, b.y)
		}
	}
	return g
}
