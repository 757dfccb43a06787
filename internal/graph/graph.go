// Package graph provides the weighted undirected graph data structure used by
// every stage of the partitioner.
//
// The representation is the static adjacency array ("forward-star") layout
// described in §5.2 of the paper: an edge array storing target nodes and edge
// weights, and a node array storing node weights and the start of the
// relevant segment in the edge array. Node ids are dense int32 values in
// [0, n). Every undirected edge {u, v} is stored twice, once in each
// direction; weights are int64 so that repeated contraction cannot overflow.
// A unit graph — every edge weight 1, as every generator and every
// unweighted file gives — stores no weight per edge: its rows all read their
// weights from the start of one run of ones as long as its largest degree.
// AdjWeights hides the difference, without a branch, and only the
// constructors of input graphs (FromCSR, FromEdgeList, FromCSRTrusted given
// nil weights, Split of a unit graph) make one; contracted graphs are
// weighted.
//
// Graphs may optionally carry 2D or 3D coordinates; the parallel coarsening
// phase uses them for geometric prepartitioning (recursive coordinate
// bisection over the available dimensions).
package graph

import (
	"fmt"
	"sort"
)

// Graph is an immutable weighted undirected graph in CSR form. Construct one
// with a Builder, FromCSR, or the generators in internal/gen.
type Graph struct {
	xadj []int32 // n+1 offsets into adj (and ewgt, unless unit)
	adj  []int32 // 2m neighbor ids
	// ewgt is the 2m edge weights parallel to adj or, in a unit graph, a run
	// of ones as long as the largest degree. rowMask is -1 or, in a unit
	// graph, 0: AdjWeights masks a row's offset with it.
	ewgt    []int64
	rowMask int32
	nwgt    []int64 // n node weights

	totalNodeWeight int64
	totalEdgeWeight int64 // each undirected edge counted once
	maxNodeWeight   int64

	x, y []float64 // optional coordinates, len n or nil
	z    []float64 // optional third dimension, len n or nil (only with x, y)
	// dropped records DropCoarseningData: a coordinate read panics.
	dropped bool
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
// modify it. Its capacity is its length, so an append never writes into the
// graph, not even into the ones run every row of a unit graph shares.
//
//kappa:hotpath
func (g *Graph) AdjWeights(v int32) []int64 {
	lo, hi := g.xadj[v], g.xadj[v+1]
	at := lo & g.rowMask
	return g.ewgt[at : at+hi-lo : at+hi-lo]
}

// UnitEdgeWeights reports whether g is a unit graph, every edge weight 1 and
// none stored.
func (g *Graph) UnitEdgeWeights() bool { return g.rowMask == 0 }

// WeightedDegree returns Out(v) = Σ_{x∈Γ(v)} ω({v,x}).
func (g *Graph) WeightedDegree(v int32) int64 {
	var s int64
	for _, w := range g.AdjWeights(v) {
		s += w
	}
	return s
}

// DropCoarseningData releases what only the coarsening passes read: the
// coordinates, the distributor's and contraction's input. A coarse level
// calls it once the next level is contracted from it, before the graph is
// shared again. A later coordinate read panics, since a graph that silently
// lost its geometry would be distributed by index ranges instead.
func (g *Graph) DropCoarseningData() {
	g.x, g.y, g.z = nil, nil, nil
	g.dropped = true
}

// coordsKept panics once DropCoarseningData has released the coordinates.
//
//kappa:invariant reading a released graph's coordinates is a pipeline bug
func (g *Graph) coordsKept() {
	if g.dropped {
		panic("graph: coordinates read after DropCoarseningData")
	}
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

// EdgeWeightTo returns ω({v,u}) or 0 if {v,u} is not an edge, by a linear
// scan of v's neighbor list: fine where degrees are small (e.g. quotient
// graphs), but quadratic in degree when called for every neighbor of a
// high-degree node — hot paths should use scatter arrays instead.
//
//kappa:hotpath
func (g *Graph) EdgeWeightTo(v, u int32) int64 {
	for i, t := range g.Adj(v) {
		if t == u {
			return g.AdjWeights(v)[i]
		}
	}
	return 0
}

// HasCoords reports whether the graph carries coordinates (2D or 3D).
func (g *Graph) HasCoords() bool { return g.CoordDims() != 0 }

// CoordDims returns the number of coordinate dimensions: 0 (no coordinates),
// 2, or 3.
func (g *Graph) CoordDims() int {
	g.coordsKept()
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
func (g *Graph) Coords() ([]float64, []float64) {
	g.coordsKept()
	return g.x, g.y
}

// Coords3 returns all coordinate slices; z is nil for 2D graphs and all
// three are nil without coordinates. Callers must not modify them.
func (g *Graph) Coords3() ([]float64, []float64, []float64) {
	g.coordsKept()
	return g.x, g.y, g.z
}

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
// not copied, but for weights that are all 1: those make a unit graph, which
// keeps none of ewgt. nwgt may be nil for unit node weights. FromCSR
// validates the structure; symmetry is checked only by Validate, which scans
// a neighbour's row per half-edge.
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
	var agg CSRAggregates
	// One pass over the rows checks neighbour ranges and weight signs and
	// sums the weights.
	for v := 0; v < n; v++ {
		for i := xadj[v]; i < xadj[v+1]; i++ {
			t, w := adj[i], ewgt[i]
			if t < 0 || int(t) >= n {
				return nil, fmt.Errorf("graph: neighbor id %d out of range", t)
			}
			if w <= 0 {
				return nil, fmt.Errorf("graph: non-positive edge weight %d", w)
			}
			agg.TotalEdgeWeight += w
		}
	}
	for _, w := range nwgt {
		if w < 0 {
			return nil, fmt.Errorf("graph: negative node weight %d", w)
		}
		agg.TotalNodeWeight += w
		agg.MaxNodeWeight = max(agg.MaxNodeWeight, w)
	}
	return fromInput(xadj, adj, ewgt, nwgt, agg), nil
}

// fromInput is FromCSRTrusted for weights an input constructor has checked
// positive and summed, over every half-edge, into agg.TotalEdgeWeight, which
// it halves: positive weights that sum to the half-edge count are all 1, and
// make a unit graph.
func fromInput(xadj []int32, adj []int32, ewgt []int64, nwgt []int64, agg CSRAggregates) *Graph {
	if agg.TotalEdgeWeight == int64(len(adj)) {
		ewgt = nil
	}
	agg.TotalEdgeWeight /= 2
	return FromCSRTrusted(xadj, adj, ewgt, nwgt, agg)
}

// CSRAggregates carries the totals FromCSRTrusted adopts alongside the CSR
// arrays, which FromCSR would re-scan 2m edges to derive. Its zero value is
// what an empty graph has; a loop that writes or validates a CSR adds each
// entry in as it passes.
type CSRAggregates struct {
	TotalNodeWeight int64
	TotalEdgeWeight int64 // each undirected edge counted once
	MaxNodeWeight   int64
}

// FromCSRTrusted adopts CSR arrays with NO validation and NO scans: the
// caller vouches for structural validity and supplies the aggregates FromCSR
// would otherwise recompute. It serves
// three kinds of caller. Contraction builds the coarse CSR into exactly-sized
// arrays and knows every total by construction. A loop that has just written
// or decoded the arrays, checking every entry as it went, has summed the
// aggregates on the way (the binary graph decoder, shard extraction,
// FromEdgeList): FromCSR would make each of its checks a second time. And a
// graph whose arrays are views over a memory-mapped file:
// the shard store records the aggregates in its manifest at write time, and
// re-scanning the arrays here would page the whole mapping in — defeating
// the point of mapping it.
//
// A nil ewgt declares every edge weight 1 (agg.TotalEdgeWeight is then m):
// the graph is a unit graph, and its one scan is of xadj, for the largest
// degree its ones run must cover. Only sources of input graphs pass nil —
// the binary decoder of a file without weights, extraction from a unit graph,
// the shard store over a unit graph's CSR.
func FromCSRTrusted(xadj []int32, adj []int32, ewgt []int64, nwgt []int64, agg CSRAggregates) *Graph {
	g := &Graph{
		xadj: xadj, adj: adj, ewgt: ewgt, rowMask: -1, nwgt: nwgt,
		totalNodeWeight: agg.TotalNodeWeight,
		totalEdgeWeight: agg.TotalEdgeWeight,
		maxNodeWeight:   agg.MaxNodeWeight,
	}
	if ewgt == nil {
		deg := int32(0)
		for v := 1; v < len(xadj); v++ {
			deg = max(deg, xadj[v]-xadj[v-1])
		}
		g.ewgt, g.rowMask = make([]int64, deg), 0
		for i := range g.ewgt {
			g.ewgt[i] = 1
		}
	}
	return g
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
	n    int
	nwgt []int64
	us   []int32
	vs   []int32
	// ws stays nil while every weight added is 1; the first other weight
	// back-fills it with ones.
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
	if w != 1 && b.ws == nil {
		b.ws = make([]int64, len(b.us), cap(b.us))
		for i := range b.ws {
			b.ws[i] = 1
		}
	}
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
	if b.ws != nil {
		b.ws = append(b.ws, w)
	}
}

// Build produces the graph. The builder can not be reused afterwards.
//
//kappa:invariant AddEdge admitted only in-range ids and positive weights; a negative node weight or a weight sum past int64 is the caller's bug
func (b *Builder) Build() *Graph {
	g, err := FromEdgeList(b.nwgt, EdgeList{U: b.us, V: b.vs, W: b.ws})
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
