package part

import (
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/par"
)

// groupedRows is the part of a BoundaryIndex that groups rows, off until
// Regroup has run since the last Reset (regrouped) and found the level worth
// grouping (grouped). slot[v] is v's row in rows, or -1.
// dirty[b] lists nodes for the next Regroup — those whose stale word a pair
// of block b raised from zero, and those without a row that such a pair made
// boundary — and pending joins them. counts is groupAll's scratch; scratch is
// groupRow's, one per member of Regroup and one per block for the pairs,
// which own it by that block. Storage grows to the finest level and is
// reused on every level.
type groupedRows struct {
	regrouped, grouped bool
	slot               []int32
	rows               []groupedRow
	groups             []rowGroup
	ids                []int32
	dirty              [][]int32
	pending            []int32
	counts             []rowCount // per node range, then the ranges before it
	scratch            []groupScratch
}

// groupedRow is one node's grouped row: the blocks of its neighbours as a
// mask, its stale word, and where its groups and its neighbour ids start.
// A row has room for every block it can border, min(degree, k) groups, so
// that regrouping it never moves it; the row of a node of degree below
// groupedDegree has none and keeps only its mask, which Seeds reads.
type groupedRow struct {
	mask, stale  uint64
	first, idsAt int32
}

// rowGroup is one group of a grouped row: the total weight of its edges and
// its neighbours, ids[lo:hi], in row order.
type rowGroup struct {
	w      int64
	lo, hi int32
}

// rowCount is what grouped rows take — rows, groups, ids — and the
// half-edges of the boundary rows they are among.
type rowCount struct{ rows, groups, ids, half int32 }

// groupScratch is what grouping a row needs beside the row: each block's edge
// count and weight, zero between rows, and the block of every neighbour as
// read once — a pair's regroup reads blocks that other pairs are changing,
// and must place each neighbour by the block it counted it in.
type groupScratch struct {
	count  [64]int32
	w      [64]int64
	blocks []int32
}

// groupedDegree is the least degree of a node whose row keeps its groups: a
// shorter row is scanned about as cheaply as its groups are read.
const groupedDegree = 16

// groupedShare is the least share of a level's boundary half-edges that its
// long rows must hold for the level to be grouped: on a mesh, whose rows are
// all short but a few, grouping would only add its bookkeeping to every
// pair, while a power-law level's hubs hold most of its boundary.
const groupedShare = 0.25

// room is how many groups and ids v's row takes: none when it is too short
// to keep its groups.
func (x *BoundaryIndex) room(v int32) (groups, ids int32) {
	if d := int32(x.p.G.Degree(v)); d >= groupedDegree {
		return min(d, int32(x.p.K)), d
	}
	return 0, 0
}

// markStale sets bits a and b in the stale word of v's row, if v has one; the
// pair that raises the word from zero lists v for the next Regroup.
//
//kappa:hotpath
func (x *BoundaryIndex) markStale(v, a, b int32) {
	if s := x.slot[v]; s >= 0 {
		x.markRow(v, s, a, b)
	}
}

// markRow is markStale on v's row s.
//
//kappa:hotpath
func (x *BoundaryIndex) markRow(v, s, a, b int32) {
	word, pair := &x.rows[s].stale, uint64(1)<<a|uint64(1)<<b
	if atomic.LoadUint64(word)&pair == pair {
		return
	}
	if atomic.OrUint64(word, pair) == 0 {
		//kappa:allow hotalloc amortized growth of a dirty list
		x.dirty[a] = append(x.dirty[a], v)
	}
}

// listUngrouped lists v, which the pair of block a made boundary or moved,
// for the next Regroup if it has no row.
//
//kappa:hotpath
func (x *BoundaryIndex) listUngrouped(v, a int32) {
	if x.grouped && x.slot[v] < 0 {
		//kappa:allow hotalloc amortized growth of a dirty list
		x.dirty[a] = append(x.dirty[a], v)
	}
}

// freshen returns v's grouped row for the pair (own, other), v in own, or -1
// when v has none: a row stale in own or other is regrouped through view and
// its two bits cleared. Bits of other blocks stay: their pairs may be moving
// nodes while this one reads them.
//
//kappa:hotpath
func (x *BoundaryIndex) freshen(sc *groupScratch, view []int32, v, own, other int32) int32 {
	if !x.grouped || x.slot[v] < 0 {
		return -1
	}
	s := x.slot[v]
	word, pair := &x.rows[s].stale, uint64(1)<<own|uint64(1)<<other
	if atomic.LoadUint64(word)&pair != 0 {
		x.groupRow(sc, view, v, s)
		atomic.AndUint64(word, ^pair)
	}
	return s
}

// PairRow reads v's grouped row for the pair of blocks own and other: v's
// neighbours in own, in row order, and the total edge weight from v into own
// and into other — what scanning v's row through the level's view gives. ok
// is false when v has no groups or a neighbour of v entered or left own or
// other since they were grouped; the caller then scans the row. own and
// other may be one block.
//
//kappa:hotpath
func (x *BoundaryIndex) PairRow(v, own, other int32) (ownNbrs []int32, wOwn, wOther int64, ok bool) {
	if x.grouped && x.slot[v] >= 0 { // most band nodes on a mesh have no row: inlined, no call
		ownNbrs, wOwn, wOther, ok = x.pairRow(v, own, other)
	}
	return
}

// pairRow is PairRow for a node that has a row.
//
//kappa:hotpath
func (x *BoundaryIndex) pairRow(v, own, other int32) (ownNbrs []int32, wOwn, wOther int64, ok bool) {
	row, ok := x.trusted(v, uint64(1)<<own|uint64(1)<<other)
	if !ok {
		return nil, 0, 0, false
	}
	if row.mask>>own&1 != 0 {
		gr := x.groups[row.first+rank(row.mask, own)]
		ownNbrs, wOwn = x.ids[gr.lo:gr.hi], gr.w
	}
	if row.mask>>other&1 != 0 {
		wOther = x.groups[row.first+rank(row.mask, other)].w
	}
	return ownNbrs, wOwn, wOther, true
}

// trusted returns v's row if it has groups and none of the given blocks is
// stale in it.
//
//kappa:hotpath
func (x *BoundaryIndex) trusted(v int32, blocks uint64) (*groupedRow, bool) {
	if !x.grouped || x.slot[v] < 0 || x.p.G.Degree(v) < groupedDegree {
		return nil, false
	}
	row := &x.rows[x.slot[v]]
	return row, atomic.LoadUint64(&row.stale)&blocks == 0
}

// rank is the position of block b's group among the groups of a row with
// mask mask: the number of lower blocks present.
func rank(mask uint64, b int32) int32 {
	return int32(bits.OnesCount64(mask & (uint64(1)<<b - 1)))
}

// Regroup brings the grouped rows up to date at the start of a global
// iteration, when view and p.Block agree. The first call after a Reset gives
// every boundary node a row, if the rows of degree groupedDegree or more hold
// groupedShare of the boundary's half-edges; a later one regroups, in
// place, the rows Patch listed and gives a row to every listed node without
// one. Both are batches on run, over node ranges and over the listed nodes.
// A partition of more than 64 blocks, whose masks would not fit a word, gets
// no rows; neither does an index Regroup is never called on, such as a
// two-block one.
func (x *BoundaryIndex) Regroup(run *par.Crew) {
	k := x.p.K
	if k > 64 {
		return
	}
	for len(x.scratch) < max(run.Members(), k) {
		x.scratch = append(x.scratch, groupScratch{})
	}
	if !x.regrouped {
		x.regrouped, x.grouped = true, x.groupAll(run)
		return
	}
	if !x.grouped {
		return
	}
	// A node is listed each time its word rises from zero, and a pair's
	// regroup may have cleared the word since: the first listing with a word
	// claims it, and a node given a row here starts with a clear one.
	g := x.p.G
	pending, half := x.pending[:0], 0
	for blk, list := range x.dirty {
		for _, v := range list {
			if s := x.slot[v]; s < 0 {
				x.slot[v] = x.newRow(v)
			} else if x.rows[s].stale != 0 {
				x.rows[s].stale = 0
			} else {
				continue
			}
			pending, half = append(pending, v), half+g.Degree(v)
		}
		x.dirty[blk] = list[:0]
	}
	x.pending = pending
	// One task runs inline: a batch's closure would cost an allocation.
	if tasks := graph.ParallelRanges(run, half); tasks == 1 {
		x.regroup(0, pending)
	} else {
		run.Run(tasks, func(member, t int) {
			x.regroup(member, pending[len(pending)*t/tasks:len(pending)*(t+1)/tasks])
		})
	}
}

// regroup groups the rows of nodes in member's scratch.
func (x *BoundaryIndex) regroup(member int, nodes []int32) {
	for _, v := range nodes {
		x.groupRow(&x.scratch[member], x.p.Block, v, x.slot[v])
	}
}

// newRow appends a row for v and returns its slot.
func (x *BoundaryIndex) newRow(v int32) int32 {
	groups, ids := x.room(v)
	x.rows = append(x.rows, groupedRow{first: int32(len(x.groups)), idsAt: int32(len(x.ids))})
	x.groups = slices.Grow(x.groups, int(groups))[:len(x.groups)+int(groups)]
	x.ids = slices.Grow(x.ids, int(ids))[:len(x.ids)+int(ids)]
	return int32(len(x.rows) - 1)
}

// groupAll gives every node Reset found on a boundary a row, over the
// node ranges of the boundary scan: one pass counts what each range's rows
// take, the next lays the rows out in node order and groups them. One range
// runs inline. It reports whether the level is grouped.
func (x *BoundaryIndex) groupAll(run *par.Crew) bool {
	g := x.p.G
	n := g.NumNodes()
	ranges := graph.ParallelRanges(run, 2*g.NumEdges())
	x.counts = slices.Grow(x.counts[:0], ranges+1)[:ranges+1]
	x.counts[0] = rowCount{}
	if ranges == 1 {
		x.countRows(0, 1)
	} else {
		run.Run(ranges, func(_, r int) { x.countRows(r, ranges) })
	}
	for r := 1; r <= ranges; r++ {
		c, before := &x.counts[r], x.counts[r-1]
		c.rows, c.groups, c.ids, c.half = c.rows+before.rows, c.groups+before.groups, c.ids+before.ids, c.half+before.half
	}
	total := x.counts[ranges]
	if float64(total.ids) < groupedShare*float64(total.half) {
		return false
	}
	x.slot = slices.Grow(x.slot[:0], n)[:n]
	x.rows = slices.Grow(x.rows[:0], int(total.rows))[:total.rows]
	x.groups = slices.Grow(x.groups[:0], int(total.groups))[:total.groups]
	x.ids = slices.Grow(x.ids[:0], int(total.ids))[:total.ids]
	if ranges == 1 {
		x.groupRange(0, 0, 1)
	} else {
		run.Run(ranges, func(member, r int) { x.groupRange(member, r, ranges) })
	}
	return true
}

// countRows counts what the rows of the boundary nodes of node range r take
// into counts[r+1].
func (x *BoundaryIndex) countRows(r, ranges int) {
	g := x.p.G
	var c rowCount
	for v, hi := g.RangeStart(r, ranges), g.RangeStart(r+1, ranges); v < hi; v++ {
		if !x.in[v] {
			continue
		}
		groups, ids := x.room(v)
		c.rows, c.groups, c.ids, c.half = c.rows+1, c.groups+groups, c.ids+ids, c.half+int32(g.Degree(v))
	}
	x.counts[r+1] = c
}

// groupRange gives every boundary node of node range r a row, laid out from
// counts[r], and groups it in member's scratch; every other node of the range
// gets none.
func (x *BoundaryIndex) groupRange(member, r, ranges int) {
	g := x.p.G
	at := x.counts[r]
	for v, hi := g.RangeStart(r, ranges), g.RangeStart(r+1, ranges); v < hi; v++ {
		if !x.in[v] {
			x.slot[v] = -1
			continue
		}
		x.slot[v] = at.rows
		x.rows[at.rows] = groupedRow{first: at.groups, idsAt: at.ids}
		x.groupRow(&x.scratch[member], x.p.Block, v, at.rows)
		groups, ids := x.room(v)
		at.rows, at.groups, at.ids = at.rows+1, at.groups+groups, at.ids+ids
	}
}

// groupRow groups v's row into row s by view. A row without groups only
// takes the mask. Otherwise one scan finds each neighbour's block and each
// block's edge count and weight, and a second places the neighbours in row
// order, the counts turned into each group's cursor.
//
//kappa:hotpath
func (x *BoundaryIndex) groupRow(sc *groupScratch, view []int32, v, s int32) {
	adj, ws := x.p.G.Adj(v), x.p.G.AdjWeights(v)
	row := &x.rows[s]
	if len(adj) < groupedDegree {
		var mask uint64
		for _, u := range adj {
			mask |= uint64(1) << ViewGet(view, u)
		}
		row.mask = mask
		return
	}
	blocks := slices.Grow(sc.blocks[:0], len(adj))[:len(adj)]
	sc.blocks = blocks
	var mask uint64
	for i, u := range adj {
		bu := ViewGet(view, u)
		blocks[i] = bu
		mask |= uint64(1) << bu
		sc.count[bu]++
		sc.w[bu] += ws[i]
	}
	row.mask = mask
	groups := x.groups[row.first:]
	at := row.idsAt
	for r, m := 0, mask; m != 0; r, m = r+1, m&(m-1) {
		bu := bits.TrailingZeros64(m)
		groups[r] = rowGroup{w: sc.w[bu], lo: at, hi: at + sc.count[bu]}
		sc.w[bu], sc.count[bu], at = 0, at, at+sc.count[bu]
	}
	for i, u := range adj { // count is each group's next free id now
		bu := blocks[i]
		x.ids[sc.count[bu]] = u
		sc.count[bu]++
	}
	for m := mask; m != 0; m &= m - 1 {
		sc.count[bits.TrailingZeros64(m)] = 0
	}
}
