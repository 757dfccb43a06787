package graph

import (
	"fmt"
	"slices"
)

// EdgeList is a batch of undirected edges in parallel-array form: edge i
// joins U[i] and V[i] with weight W[i].
type EdgeList struct {
	U, V []int32
	W    []int64
}

// FromEdgeLists builds the graph on len(nwgt) nodes whose edges are the
// union of the lists: every edge is stored in both directions, adjacency
// rows come out strictly ascending, parallel edges (within or across lists)
// merge by summing their weights, and self loops are dropped. nwgt is
// adopted. This is the one "edge list → sorted, merged CSR" kernel:
// Builder.Build and the distributed stitch both end here. The edges are
// counted, scattered into arrays sized by that count and row-merged in place,
// so nothing grows.
func FromEdgeLists(nwgt []int64, lists []EdgeList) *Graph {
	n := len(nwgt)
	// pos[v+2] counts row v, so that after the prefix sum pos[v+1] is the
	// cursor of row v and, once scattered, pos[:n+1] is the offset array.
	pos := make([]int32, n+2)
	for _, l := range lists {
		countEdges(pos, l.U, l.V)
	}
	for v := 0; v < n; v++ {
		pos[v+2] += pos[v+1]
	}
	adj := make([]int32, pos[n+1])
	ewgt := make([]int64, pos[n+1])
	for _, l := range lists {
		scatterEdges(pos, adj, ewgt, l)
	}
	var rs RowSorter
	half := mergeRows(pos[:n+1], adj, ewgt, &rs)
	return MustFromCSR(pos[:n+1], adj[:half:half], ewgt[:half:half], nwgt)
}

// countEdges adds the half-edges of one list to the per-row counts.
//
//kappa:hotpath
func countEdges(pos []int32, us, vs []int32) {
	n := uint32(len(pos) - 2)
	for i, u := range us {
		v := vs[i]
		if uint32(u) >= n || uint32(v) >= n {
			edgeOutOfRange(u, v, int(n))
		}
		if u != v {
			pos[u+2]++
			pos[v+2]++
		}
	}
}

//kappa:invariant ids are validated where they enter the process (graphio, Builder.AddEdge); the kernels producing edge lists emit ids of the graph they contract
func edgeOutOfRange(u, v int32, n int) {
	panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0,%d)", u, v, n))
}

// scatterEdges writes both directions of every edge of l at its rows'
// cursors.
//
//kappa:hotpath
func scatterEdges(pos []int32, adj []int32, ewgt []int64, l EdgeList) {
	for i, u := range l.U {
		v, w := l.V[i], l.W[i]
		if u == v {
			continue
		}
		p := pos[u+1]
		adj[p], ewgt[p] = v, w
		pos[u+1] = p + 1
		p = pos[v+1]
		adj[p], ewgt[p] = u, w
		pos[v+1] = p + 1
	}
}

// mergeRows sorts every row of the CSR (xadj, adj, ewgt) by neighbour, sums
// runs of equal neighbours into one entry and compacts the arrays in place,
// rewriting xadj. It returns the number of half-edges left.
//
//kappa:hotpath
func mergeRows(xadj []int32, adj []int32, ewgt []int64, rs *RowSorter) int32 {
	out, start := int32(0), int32(0)
	for v := 0; v+1 < len(xadj); v++ {
		end := xadj[v+1]
		rs.Sort(adj[start:end], ewgt[start:end])
		for i := start; i < end; {
			t, w := adj[i], ewgt[i]
			for i++; i < end && adj[i] == t; i++ {
				w += ewgt[i]
			}
			adj[out], ewgt[out] = t, w
			out++
		}
		xadj[v+1] = out
		start = end
	}
	return out
}

// insertionMax is the longest row sorted by insertion; rows of the meshes
// and their coarsenings are almost all shorter.
const insertionMax = 32

// RowSorter sorts one adjacency row — neighbour ids with their parallel edge
// weights — ascending by neighbour, stably. It replaces sort.Sort over a
// boxed two-slice struct: short rows take an insertion sort, which costs one
// pass when the row is already in order (a relabelled sorted row, a row whose
// only disorder is its ghost tail); longer rows are checked for order and
// otherwise sorted as packed (neighbour, position) keys, in scratch the
// sorter keeps between rows. The zero value is ready to use.
type RowSorter struct {
	keys []uint64
	w    []int64
}

// Sort orders adj ascending, permuting w alongside.
//
//kappa:hotpath
func (rs *RowSorter) Sort(adj []int32, w []int64) {
	if len(adj) > insertionMax {
		if !slices.IsSorted(adj) {
			rs.sortLong(adj, w)
		}
		return
	}
	for i := 1; i < len(adj); i++ {
		a, x := adj[i], w[i]
		j := i
		for ; j > 0 && adj[j-1] > a; j-- {
			adj[j], w[j] = adj[j-1], w[j-1]
		}
		adj[j], w[j] = a, x
	}
}

// sortLong sorts a long unsorted row: the position in the low half of each
// key keeps equal neighbours in input order and finds the weight afterwards.
func (rs *RowSorter) sortLong(adj []int32, w []int64) {
	rs.keys = slices.Grow(rs.keys[:0], len(adj))[:len(adj)]
	rs.w = append(rs.w[:0], w...)
	for i, a := range adj {
		rs.keys[i] = uint64(uint32(a))<<32 | uint64(i)
	}
	slices.Sort(rs.keys)
	for i, k := range rs.keys {
		adj[i], w[i] = int32(k>>32), rs.w[uint32(k)]
	}
}
