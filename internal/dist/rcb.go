package dist

import (
	"math/bits"
	"runtime"
	"slices"

	"repro/internal/graph"
	"repro/internal/mem"
)

// rcbScratch is recursive coordinate bisection (§3.3) over any number of
// coordinate dimensions: the current node set is split at the weighted
// median of its widest dimension (the one with the largest extent; the
// lowest dimension index wins ties), the two halves recurse on the two
// halves of the PE group, side by side on up to GOMAXPROCS goroutines where
// both are large (bisect). Non-power-of-two PE counts are handled by
// splitting a p-PE group into ⌊p/2⌋ and ⌈p/2⌉ PEs and placing the cut at
// the matching weight fraction. w == nil means unit weights. The result is
// deterministic: ties in coordinates are broken by node id. With two
// dimensions this is exactly the classic 2D RCB; 3D instances (e.g. Grid3D)
// get real geometric bisection instead of an index-range fallback.
//
// Each split is found by weighted selection on the (coordinate, id) order —
// expected linear time in the subset, O(n log pes) overall — never by
// sorting the subset: only which nodes fall left of the split matters, not
// their order. The node permutation and the result are drawn from a (nil =
// allocate); the caller owns the result.
//
//kappa:invariant the distributor only selects RCB for graphs that carry coordinates
func rcbScratch(dims [][]float64, w []int64, pes int, a *mem.Arena) []int32 {
	if len(dims) == 0 {
		panic("dist: RCB needs at least one coordinate dimension")
	}
	n := len(dims[0])
	if pes <= 1 || n == 0 {
		return allOnPE0(a, n)
	}
	assign := a.Int32(n)
	nodes := a.Int32(n)
	for v := range nodes {
		nodes[v] = int32(v)
	}
	total := int64(n)
	if w != nil {
		total = weightOf(w, nodes)
	}
	r := rcb{w: w, assign: assign}
	r.bisect(dims, nodes, total, 0, pes, runtime.GOMAXPROCS(0))
	a.PutInt32(nodes)
	return assign
}

// parallelRCBNodes is the least number of nodes on each side of a split for
// bisect to recurse into the two halves side by side. Measured on the
// reference box at 16 PEs and GOMAXPROCS 2 (EXPERIMENTS.md "PR 30"), a floor
// of 1 024 against 4 096 takes rgg:12 from 0.26 to 0.21 ms and rgg:11 from
// 0.11 to 0.094 ms and leaves the larger levels as they are; below it the
// halves are too short to pay for their goroutines.
const parallelRCBNodes = 1024

// rcb is the state of one recursive coordinate bisection besides its
// coordinates.
type rcb struct {
	w      []int64 // nil = unit weights
	assign []int32
}

// bisect assigns nodes (total weight weight) to the p PEs starting at pe0 on
// at most procs goroutines. The two halves of a split that both go on
// splitting and both hold parallelRCBNodes nodes run side by side, each with
// half of procs: they write the assign entries of disjoint node sets and
// permute disjoint subslices of nodes, and which nodes fall left of a split
// depends only on the set being split (selectPrefix), so the result is the
// same for every procs.
func (r rcb) bisect(dims [][]float64, nodes []int32, weight int64, pe0, p, procs int) {
	if p <= 1 || len(nodes) <= 1 {
		for _, v := range nodes {
			r.assign[v] = int32(pe0)
		}
		return
	}
	pl := p / 2
	pr := p - pl

	// Widest dimension of the bounding box of the current set.
	coord, widest := dims[0], extent(dims[0], nodes)
	for _, c := range dims[1:] {
		if e := extent(c, nodes); e > widest {
			coord, widest = c, e
		}
	}

	// Weighted median at fraction pl/p: in (coordinate, id) order the split
	// index s is the first position whose prefix weight reaches
	// weight·pl/p; an all-zero subset splits by node count instead.
	// Clamping keeps both sides non-empty so no PE starves while nodes
	// remain. After each selection nodes[:s] holds exactly the s first
	// nodes of that order (unordered).
	m := len(nodes)
	lo, hi := minSide(pl, m, pr), m-minSide(pr, m, pl)
	var s int
	var leftWeight int64
	if weight == 0 {
		s = min(max(m*pl/p, lo), hi)
		selectPrefix(coord, nil, nodes, int64(s))
	} else {
		s, leftWeight = selectPrefix(coord, r.w, nodes, weight*int64(pl)/int64(p))
		if s < lo {
			selectPrefix(coord, nil, nodes[s:], int64(lo-s))
			leftWeight += weightOf(r.w, nodes[s:lo])
			s = lo
		} else if s > hi {
			selectPrefix(coord, nil, nodes[:s], int64(hi))
			leftWeight -= weightOf(r.w, nodes[hi:s])
			s = hi
		}
	}
	if procs > 1 && pl > 1 && min(s, m-s) >= parallelRCBNodes {
		// The halves get their own list of dimensions, so that the caller's
		// need not outlive its frame on the serial path.
		dims := slices.Clone(dims)
		graph.ForRanges(2, func(half int) {
			if half == 0 {
				r.bisect(dims, nodes[:s], leftWeight, pe0, pl, procs-procs/2)
			} else {
				r.bisect(dims, nodes[s:], weight-leftWeight, pe0+pl, pr, procs/2)
			}
		})
		return
	}
	r.bisect(dims, nodes[:s], leftWeight, pe0, pl, procs)
	r.bisect(dims, nodes[s:], weight-leftWeight, pe0+pl, pr, procs)
}

// selectPrefix rearranges nodes so that, for the returned s, nodes[:s] holds
// the s first nodes of the (coord, id) order and nodes[s:] the rest, where s
// is the first position of that order whose prefix weight plus half its own
// weight reaches target (len(nodes) when none does); prefix is the weight of
// nodes[:s]. w == nil means unit weights, which makes it plain rank
// selection: s = min(target, len(nodes)).
//
// Quickselect narrowed by prefix weight: partition the candidate range
// around a pivot, sum the weight left of it, keep the side the target falls
// in. Expected linear time; a range that fails to shrink geometrically is
// sorted instead, which bounds the worst case at O(n log n).
//
//kappa:hotpath
func selectPrefix(coord []float64, w []int64, nodes []int32, target int64) (s int, prefix int64) {
	return selectPrefixDepth(coord, w, nodes, target, 2*bits.Len(uint(len(nodes))))
}

// selectPrefixDepth is selectPrefix with an explicit budget of partitioning
// rounds before the sort fallback (tests drive the fallback with 0).
//
//kappa:hotpath
func selectPrefixDepth(coord []float64, w []int64, nodes []int32, target int64, depth int) (s int, prefix int64) {
	lo, hi := 0, len(nodes)
	// Invariant: the final s lies in [lo, hi]; nodes[:lo] and nodes[hi:]
	// hold their final sets; prefix is the weight of nodes[:lo].
	for ; lo < hi; depth-- {
		if depth <= 0 {
			slices.SortFunc(nodes[lo:hi], func(a, b int32) int {
				if before(coord, a, b) {
					return -1
				}
				return 1
			})
			for lo < hi && prefix+weightAt(w, nodes[lo])/2 < target {
				prefix += weightAt(w, nodes[lo])
				lo++
			}
			break
		}
		p := lo + partition(coord, nodes[lo:hi])
		wl := weightOf(w, nodes[lo:p])
		if wp := weightAt(w, nodes[p]); prefix+wl+wp/2 >= target {
			hi = p
		} else {
			prefix += wl + wp
			lo = p + 1
		}
	}
	return lo, prefix
}

// partition rearranges the non-empty s around a median-of-three pivot and
// returns the pivot's final position p: s[:p] precedes s[p] and s[p+1:]
// follows it in the (coord, id) order.
//
//kappa:hotpath
func partition(coord []float64, s []int32) int {
	last := len(s) - 1
	if last == 0 {
		return 0
	}
	// Median of first, middle, last into s[0].
	mid := last / 2
	if before(coord, s[mid], s[0]) {
		s[0], s[mid] = s[mid], s[0]
	}
	if before(coord, s[last], s[mid]) {
		s[mid], s[last] = s[last], s[mid]
		if before(coord, s[mid], s[0]) {
			s[0], s[mid] = s[mid], s[0]
		}
	}
	s[0], s[mid] = s[mid], s[0]
	pv, cp := s[0], coord[s[0]]
	i, j := 1, last
	for {
		for i <= j {
			if c := coord[s[i]]; c < cp || (c == cp && s[i] < pv) {
				i++
			} else {
				break
			}
		}
		for i <= j {
			if c := coord[s[j]]; c > cp || (c == cp && s[j] > pv) {
				j--
			} else {
				break
			}
		}
		if i >= j {
			break
		}
		s[i], s[j] = s[j], s[i]
		i++
		j--
	}
	s[0], s[j] = s[j], s[0]
	return j
}

// before is the (coordinate, id) total order RCB splits by.
func before(coord []float64, a, b int32) bool {
	ca, cb := coord[a], coord[b]
	return ca < cb || (ca == cb && a < b)
}

// weightAt is the weight of node v (1 when w is nil).
func weightAt(w []int64, v int32) int64 {
	if w == nil {
		return 1
	}
	return w[v]
}

// weightOf is the total weight of nodes (their count when w is nil).
//
//kappa:hotpath
func weightOf(w []int64, nodes []int32) int64 {
	if w == nil {
		return int64(len(nodes))
	}
	var sum int64
	for _, v := range nodes {
		sum += w[v]
	}
	return sum
}

// extent returns the coordinate spread of the node set along one dimension.
func extent(c []float64, nodes []int32) float64 {
	lo, hi := c[nodes[0]], c[nodes[0]]
	for _, v := range nodes[1:] {
		if c[v] < lo {
			lo = c[v]
		}
		if c[v] > hi {
			hi = c[v]
		}
	}
	return hi - lo
}

// minSide returns the minimum number of nodes the p-PE side of a split must
// receive so that no PE stays empty while nodes remain: p when the set is
// large enough, otherwise whatever is left after the other side took its
// share.
func minSide(p, n, otherP int) int {
	if n >= p+otherP {
		return p
	}
	if n > otherP {
		return n - otherP
	}
	return 0
}
