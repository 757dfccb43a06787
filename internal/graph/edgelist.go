package graph

import (
	"fmt"
	"runtime"
	"slices"
	"sort"

	"repro/internal/par"
)

// EdgeList is a batch of undirected edges in parallel-array form: edge i
// joins U[i] and V[i] with weight W[i], or 1 when W is nil.
type EdgeList struct {
	U, V []int32
	W    []int64
}

// parallelHalfEdges is the least number of half-edges a pass sized by
// ParallelRanges splits into node ranges, and half of it the least share it
// gives each. Measured with the run's crew awake (EXPERIMENTS.md "PR 31"), a
// floor of 8 192 against 65 536 took in-process rmat:12 k=16 coarsening from
// 11.0–12.7 to 9.7–11.4 ms and left rgg:15 where it was: a batch handed to an
// awake helper costs a fraction of a microsecond, where the goroutine starts
// it replaces cost tens.
const parallelHalfEdges = 1 << 13

// edgeListHalfEdges is FromEdgeList's own floor. Each of its ranges scans
// all the edges and writes only its own rows, so a second range doubles the
// scanning: with goroutines started per call (par.Spawn), two ranges did not
// beat one up to 32 k half-edges on the reference box (EXPERIMENTS.md "PR
// 31"), and won from 66 k on (2.1 → 1.6 ms; "PR 24").
const edgeListHalfEdges = 1 << 16

// FromEdgeList builds the graph on len(nwgt) nodes whose edges are l's:
// every edge is stored in both directions, adjacency rows come out strictly
// ascending, parallel edges merge by summing their weights, and self loops
// are dropped. nwgt is adopted; merged weights that are all 1 make a unit
// graph. This is the one "edge list → sorted, merged CSR" kernel, behind
// Builder.Build and graphio.ReadMETIS. The edges are counted, scattered into
// arrays sized by that count and row-merged in place, so nothing grows;
// above edgeListHalfEdges the three passes run over node ranges on up to
// GOMAXPROCS goroutines, and the graph is the same for any number of them.
// When l has nil weights no weight array is scattered: the rows are sorted
// alone, and only a parallel edge among them makes the kernel write ones and
// merge.
//
// The passes validate what they touch, once, and the totals a graph carries
// are summed on the way, so the arrays are adopted without another walk: an
// endpoint outside [0, n), arrays of unequal lengths (a nil W aside), an edge
// weight that is not positive — given or, by overflow, merged — and a
// negative node weight are errors.
func FromEdgeList(nwgt []int64, l EdgeList) (*Graph, error) {
	return fromEdgeList(nwgt, l, BuildRanges(2*len(l.U)))
}

// BuildRanges is how many node ranges a constructor of an input graph,
// which builds outside any run and starts a goroutine per range (par.Spawn),
// splits work on half half-edges into: one below edgeListHalfEdges, else up
// to GOMAXPROCS with at least half the floor each. FromEdgeList and the
// geometric generator (gen.GeometricGraph) are sized by it.
func BuildRanges(half int) int {
	return max(1, min(runtime.GOMAXPROCS(0), half/(edgeListHalfEdges/2)))
}

// ParallelRanges is how many node ranges a kernel that reads half half-edges
// once per pass splits its nodes into on run: one below parallelHalfEdges,
// else as many as run has members (GOMAXPROCS for a nil run) with at least
// half the floor each. The passes sized by it are the stitch's count, fill
// and row sort (coarsen.StitchChecked); coarsen.ContractWith's numbering,
// capped there by Options.Workers, which alone sizes its count and fill; the
// gap-edge scan of matching.Parallel; the boundary scan of
// part.BoundaryIndex.Reset; and innerOuter's weighted-degree sums
// (rating.NewRaterOn).
//
// Every split pass of a run is a batch on the run's crew (package par): these
// ranges, the per-block matchings of matching.Parallel, the halves of
// recursive coordinate bisection (dist, with a node floor of its own; nested
// halves run inline), the per-PE extraction of dist.ExtractAllOn, the
// refinement pairs and the quotient rows. Two fan-outs start a goroutine per
// task instead: the PEs of a distributed level (see core.DistributedLevel)
// and the attempts of initial partitioning. FromEdgeList builds outside any
// run and starts its ranges' goroutines per call (par.Spawn).
func ParallelRanges(run *par.Crew, half int) int {
	return max(1, min(run.Members(), half/(parallelHalfEdges/2)))
}

// fromEdgeList is FromEdgeList over the given number of node ranges; one
// range is the serial kernel. It builds graphs outside any run, so the ranges
// run on goroutines of their own (par.Spawn).
func fromEdgeList(nwgt []int64, l EdgeList, workers int) (*Graph, error) {
	n := len(nwgt)
	var agg CSRAggregates
	for v, w := range nwgt {
		if w < 0 {
			return nil, fmt.Errorf("graph: node %d has negative weight %d", v, w)
		}
		agg.TotalNodeWeight += w
		agg.MaxNodeWeight = max(agg.MaxNodeWeight, w)
	}
	if len(l.V) != len(l.U) || (l.W != nil && len(l.W) != len(l.U)) {
		return nil, fmt.Errorf("graph: edge list has %d sources, %d targets, %d weights", len(l.U), len(l.V), len(l.W))
	}
	unit := l.W == nil
	// rows[r] is node range r: its bounds, where its first row starts before
	// anything is merged, what merging it came to, whether every weight it
	// scattered and merged is positive and, unit, whether a row holds a
	// neighbour twice.
	rows := make([]struct {
		lo, hi, start, end int32
		weight             int64
		positive, parallel bool
	}, max(1, min(workers, n)))
	workers = len(rows)

	// pos[v+2] counts row v, so that after the prefix sum pos[v+1] is the
	// cursor of row v and, once scattered, pos[:n+1] is the offset array.
	// Counting splits the nodes evenly: how the half-edges fall is not known
	// before it.
	pos := make([]int32, n+2)
	for r := range rows {
		rows[r].lo, rows[r].hi = int32(int64(n)*int64(r)/int64(workers)), int32(int64(n)*int64(r+1)/int64(workers))
	}
	bad := -1
	par.Spawn(workers, func(_, r int) {
		// Every range scans every edge, so each finds the same first bad
		// one; range 0 reports it.
		if i := countEdges(pos, l.U, l.V, rows[r].lo, rows[r].hi); i >= 0 && r == 0 {
			bad = i
		}
	})
	if bad >= 0 {
		return nil, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", l.U[bad], l.V[bad], n)
	}
	for v := 0; v < n; v++ {
		pos[v+2] += pos[v+1]
	}

	// Scatter and merge split the nodes by half-edges. A range scatters its
	// own rows and merges them in place from where they start, so no range
	// waits for another; starts are read before any cursor moves.
	total := int64(pos[n+1])
	for r := 1; r < workers; r++ {
		lo := int32(sort.Search(n, func(v int) bool { return int64(pos[v+1])*int64(workers) >= total*int64(r) }))
		rows[r-1].hi, rows[r].lo, rows[r].start = lo, lo, pos[lo+1]
	}
	adj := make([]int32, total)
	var ewgt []int64
	if !unit {
		ewgt = make([]int64, total)
	}
	merge := func(_, r int) {
		row := &rows[r]
		var rs RowSorter
		row.end, row.weight, row.positive = mergeRows(pos[:n+1], adj, ewgt, row.lo, row.hi, row.start, &rs)
	}
	par.Spawn(workers, func(_, r int) {
		row := &rows[r]
		// Every range reads every weight, so each judges the given ones alike.
		given := scatterEdges(pos, adj, ewgt, l, row.lo, row.hi)
		if !unit {
			merge(0, r)
			row.positive = row.positive && given
			return
		}
		row.end, row.parallel = sortRows(pos[:n+1], adj, row.lo, row.hi, row.start)
		row.weight, row.positive = int64(row.end-row.start), true
	})
	parallel := false
	for _, row := range rows {
		parallel = parallel || row.parallel
	}
	if parallel {
		// Parallel unweighted edges merge to a weight above 1: write the ones
		// the rows stand for and merge them, sorted already.
		ewgt = make([]int64, total)
		for i := range ewgt {
			ewgt[i] = 1
		}
		par.Spawn(workers, merge)
	}

	// One ordered slide closes the gaps the merged ranges left between them.
	half := int32(0)
	for _, row := range rows {
		if !row.positive {
			return nil, fmt.Errorf("graph: non-positive edge weight")
		}
		agg.TotalEdgeWeight += row.weight
		if shift := row.start - half; shift > 0 {
			copy(adj[half:], adj[row.start:row.end])
			copy(ewgt[half:], ewgt[row.start:row.end])
			for v := row.lo; v < row.hi; v++ {
				pos[v+1] -= shift
			}
		}
		half += row.end - row.start
	}
	if ewgt != nil {
		ewgt = ewgt[:half:half]
	}
	return fromInput(pos[:n+1], adj[:half:half], ewgt, nwgt, agg), nil
}

// countEdges adds the half-edges the list gives the rows [lo, hi) to the
// per-row counts. It returns the index of the first edge with an endpoint
// outside the graph, or -1.
//
//kappa:hotpath
func countEdges(pos []int32, us, vs []int32, lo, hi int32) int {
	n, span := uint32(len(pos)-2), uint32(hi-lo)
	for i, u := range us {
		v := vs[i]
		if uint32(u) >= n || uint32(v) >= n {
			return i
		}
		if u == v {
			continue
		}
		if uint32(u-lo) < span {
			pos[u+2]++
		}
		if uint32(v-lo) < span {
			pos[v+2]++
		}
	}
	return -1
}

// scatterEdges writes the half-edges l gives the rows [lo, hi) at those
// rows' cursors, in the order of the list, and their weights, unless ewgt is
// nil. It reports whether every weight of the list, self loops aside, is
// positive.
//
//kappa:hotpath
func scatterEdges(pos []int32, adj []int32, ewgt []int64, l EdgeList, lo, hi int32) (positive bool) {
	span := uint32(hi - lo)
	positive = true
	for i, u := range l.U {
		v, w := l.V[i], int64(1)
		if u == v {
			continue
		}
		if l.W != nil {
			w = l.W[i]
		}
		if w <= 0 {
			positive = false
		}
		if uint32(u-lo) < span {
			p := pos[u+1]
			adj[p] = v
			if ewgt != nil {
				ewgt[p] = w
			}
			pos[u+1] = p + 1
		}
		if uint32(v-lo) < span {
			p := pos[v+1]
			adj[p] = u
			if ewgt != nil {
				ewgt[p] = w
			}
			pos[v+1] = p + 1
		}
	}
	return positive
}

// sortRows sorts the rows [lo, hi) of the unweighted CSR (xadj, adj), the
// first of which starts at start, by neighbour, in place. It returns where
// they end and whether a row holds a neighbour twice.
//
//kappa:hotpath
func sortRows(xadj []int32, adj []int32, lo, hi, start int32) (end int32, parallel bool) {
	end = start
	for v := lo; v < hi; v++ {
		start, end = end, xadj[v+1]
		row := adj[start:end]
		SortIDs(row)
		for i := 1; i < len(row); i++ {
			parallel = parallel || row[i] == row[i-1]
		}
	}
	return end, parallel
}

// SortIDs sorts a row of neighbour ids without weights ascending: by
// insertion when it is short, as RowSorter does, else by slices.Sort.
//
//kappa:hotpath
func SortIDs(row []int32) {
	if len(row) > insertionMax {
		slices.Sort(row)
		return
	}
	for i := 1; i < len(row); i++ {
		a := row[i]
		j := i
		for ; j > 0 && row[j-1] > a; j-- {
			row[j] = row[j-1]
		}
		row[j] = a
	}
}

// mergeRows sorts the rows [lo, hi) of the CSR (xadj, adj, ewgt), the first
// of which starts at start, by neighbour, sums runs of equal neighbours into
// one entry and compacts the rows in place from start on, rewriting their
// ends in xadj. It returns where the compacted rows end, the sum of their
// weights, and whether every merged weight is positive.
//
//kappa:hotpath
func mergeRows(xadj []int32, adj []int32, ewgt []int64, lo, hi, start int32, rs *RowSorter) (out int32, sum int64, positive bool) {
	out, positive = start, true
	for v := lo; v < hi; v++ {
		end := xadj[v+1]
		rs.Sort(adj[start:end], ewgt[start:end])
		for i := start; i < end; {
			t, w := adj[i], ewgt[i]
			for i++; i < end && adj[i] == t; i++ {
				w += ewgt[i]
			}
			if w <= 0 {
				positive = false
			}
			sum += w
			adj[out], ewgt[out] = t, w
			out++
		}
		xadj[v+1] = out
		start = end
	}
	return out, sum, positive
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
