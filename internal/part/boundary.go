package part

import (
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/par"
)

// ViewGet and ViewSet access a shared block-membership view atomically.
// During parallel refinement every pair owns the entries of its two blocks:
// it is the only writer, and concurrent readers from other pairs only test
// membership against *their* blocks, for which any value in {a, b} of the
// writing pair is equivalent. Atomics make this access pattern well defined
// under the Go memory model.
func ViewGet(view []int32, v int32) int32 { return atomic.LoadInt32(&view[v]) }

func ViewSet(view []int32, v, b int32) { atomic.StoreInt32(&view[v], b) }

// BoundaryIndex keeps, per block, the nodes that have a neighbour outside
// their block, so that refining the pair (a, b) costs work proportional to
// the boundaries of a and b instead of a scan over all n nodes (§5.2).
//
// lists[b] is a lazily compacted superset: it holds every boundary node of
// block b exactly once, and may also hold nodes that stopped being boundary
// nodes or that left b since the list was last compacted. Seeds compacts
// the two lists it reads; Patch appends what a pair's moves made boundary.
// in[v] says whether v is in the list of its current block.
//
// minW[b] is a lower bound on the weight of block b's lightest node: exact
// after Reset, lowered by every arrival Patch sees and never raised when a
// node leaves, so that a balance test no node of that weight passes (see
// MinWeight) rules out every node of the block without looking at one.
//
// Ownership is the rule the snapshot view already relies on: the pair
// refining (a, b) is the only reader and writer of lists a and b, of minW[a]
// and minW[b], and of the marks of nodes in a ∪ b. A move between a and b
// cannot change the boundary status of a node in a third block — it was
// adjacent to the moved node's old block and is adjacent to its new one — so
// concurrent pairs of one colour class never touch each other's lists or
// bounds and need no locks.
//
// Grouped rows (see Regroup and grouped.go) spare a pair the rows of its
// hubs. A boundary node's row is stably partitioned by the block each
// neighbour was in when it was grouped, with every group's edge-weight sum
// and a one-word mask of the blocks present: "which of v's neighbours are in
// a, and how heavy are its ties to a and to b" is then two groups, and "does
// v border b" one bit. Patch keeps the rows honest: a move between a and b
// sets bits a and b in the stale word of every neighbour's row, and a pair
// (c, d) trusts a row only while its bits c and d are clear. Only the pairs
// of c and d set those bits, and the schedule runs them all before (c, d) or
// after it, so the test needs no lock; the words are atomic because a pair
// sets bits in the rows of third blocks' nodes, which concurrent pairs read.
// A pair that meets a row of its own blocks stale for them regroups it on the
// spot (see seedsOf), for it owns the row as it owns the node. A trusted row
// gives the bytes a full scan gives: groups keep row order and sums are
// exact. Rows are reset with the lists and regrouped once per global
// iteration.
type BoundaryIndex struct {
	p     *Partition
	lists [][]int32
	in    []bool
	minW  []int64

	// ranges holds what each node range after the first finds in a Reset
	// that runs side by side.
	ranges []rangeScan

	// Quotient scratch: one per member, every block's row, and the rows
	// joined.
	qscratch []quotientScratch
	qrows    [][]QEdge
	qedges   []QEdge

	groupedRows // see Regroup
}

// rangeScan is one node range's share of a boundary scan: the boundary nodes
// of each block in it and the weight of each block's lightest node in it.
type rangeScan struct {
	lists [][]int32
	minW  []int64
}

// NewBoundaryIndex indexes the boundary of every block of p in one O(n+m)
// pass.
func NewBoundaryIndex(p *Partition) *BoundaryIndex {
	x := &BoundaryIndex{}
	x.Reset(nil, p, p.Block, -1, -1)
	return x
}

// Reset re-targets the index at p as seen through view, reusing the storage
// it has grown: a run keeps one index and resets it per level. With a >= 0
// only blocks a and b are indexed — the one-shot form behind the standalone
// pair entry points, which costs one scan of the nodes of a ∪ b rather than
// of the whole graph's adjacency. It is the one boundary scan of the
// package; lists come out in node order, and the scan records the lightest
// node of every block it indexes. The whole-graph scan runs on the node ranges
// of graph.ParallelRanges, a batch on run.
func (x *BoundaryIndex) Reset(run *par.Crew, p *Partition, view []int32, a, b int32) {
	for blk, list := range x.lists {
		for _, v := range list {
			x.in[v] = false
		}
		x.lists[blk] = list[:0]
	}
	x.p, x.regrouped, x.grouped = p, false, false
	g := p.G
	if n := g.NumNodes(); cap(x.in) < n {
		x.in = make([]bool, n)
	} else {
		x.in = x.in[:n]
	}
	if cap(x.lists) < p.K {
		x.lists = make([][]int32, p.K)
	}
	x.lists = x.lists[:p.K]
	x.dirty = slices.Grow(x.dirty[:0], p.K)[:p.K]
	for blk := range x.dirty {
		x.dirty[blk] = x.dirty[blk][:0]
	}
	x.minW = slices.Grow(x.minW[:0], p.K)[:p.K]
	for blk := range x.minW {
		x.minW[blk] = NoNode
	}
	ranges := 1
	if a < 0 {
		ranges = graph.ParallelRanges(run, 2*g.NumEdges())
	}
	if ranges == 1 {
		x.scan(view, 0, int32(g.NumNodes()), a, b, x.lists, x.minW)
		return
	}
	// Node ranges, claimed by run's members: the first into the index
	// itself, every other into lists and bounds of its own, joined per block
	// in range order — the lists of the serial scan.
	for len(x.ranges) < ranges-1 {
		x.ranges = append(x.ranges, rangeScan{})
	}
	run.Run(ranges, func(_, r int) {
		lists, minW := x.lists, x.minW
		if r > 0 {
			s := &x.ranges[r-1]
			s.lists = slices.Grow(s.lists[:0], p.K)[:p.K]
			s.minW = slices.Grow(s.minW[:0], p.K)[:p.K]
			for blk := range s.lists {
				s.lists[blk], s.minW[blk] = s.lists[blk][:0], NoNode
			}
			lists, minW = s.lists, s.minW
		}
		x.scan(view, g.RangeStart(r, ranges), g.RangeStart(r+1, ranges), a, b, lists, minW)
	})
	for _, s := range x.ranges[:ranges-1] {
		for blk, list := range s.lists {
			x.lists[blk] = append(x.lists[blk], list...)
			x.minW[blk] = min(x.minW[blk], s.minW[blk])
		}
	}
}

// scan is the boundary scan of the nodes [lo, hi): it marks and appends to
// lists every boundary node of the indexed blocks, in node order, and lowers
// minW to the lightest node of each.
func (x *BoundaryIndex) scan(view []int32, lo, hi, a, b int32, lists [][]int32, minW []int64) {
	g := x.p.G
	for v := lo; v < hi; v++ {
		bv := ViewGet(view, v)
		if a >= 0 && bv != a && bv != b {
			continue
		}
		minW[bv] = min(minW[bv], g.NodeWeight(v))
		for _, u := range g.Adj(v) {
			if ViewGet(view, u) != bv {
				x.in[v] = true
				lists[bv] = append(lists[bv], v)
				break
			}
		}
	}
}

// List returns block b's list as it stands: a superset of b's boundary.
func (x *BoundaryIndex) List(b int32) []int32 { return x.lists[b] }

// NoNode is the MinWeight of a block the index has seen no node of: heavier
// than any node, so that no balance bound admits it.
const NoNode = math.MaxInt64

// MinWeight returns a lower bound on the weight of the lightest node of
// block b, or NoNode for a block that is empty (or that a two-block Reset
// left out). A move rule that is monotone in the node weight and rejects
// this weight rejects every node of b.
//
//kappa:hotpath
func (x *BoundaryIndex) MinWeight(b int32) int64 { return x.minW[b] }

// Seeds appends to dst, in node order, the nodes of blocks a and b that have
// a neighbour in the other block of the pair — the depth-1 band of §5.2 —
// and compacts lists a and b on the way: nodes that left the block or have
// no foreign neighbour any more are dropped.
func (x *BoundaryIndex) Seeds(dst []int32, view []int32, a, b int32) []int32 {
	var sc *groupScratch
	if x.grouped {
		sc = &x.scratch[a]
	}
	dst = x.seedsOf(dst, sc, view, a, b)
	dst = x.seedsOf(dst, sc, view, b, a)
	slices.Sort(dst)
	return dst
}

// seedsOf is Seeds for one of the pair's blocks. A grouped row answers from
// its mask; one that is stale for the pair is regrouped first, through
// view: the pair owns its two blocks' nodes and rows, and the regroup spares
// every later pair of the two blocks the full scan.
//
//kappa:hotpath
func (x *BoundaryIndex) seedsOf(dst []int32, sc *groupScratch, view []int32, own, other int32) []int32 {
	g := x.p.G
	list := x.lists[own]
	kept := 0
	for _, v := range list {
		if ViewGet(view, v) != own {
			continue // left the block; the list of its new block holds it
		}
		seed, boundary := false, false
		if s := x.freshen(sc, view, v, own, other); s >= 0 {
			mask := x.rows[s].mask
			seed, boundary = mask>>other&1 != 0, mask&^(1<<own) != 0
		} else {
			for _, u := range g.Adj(v) {
				bu := ViewGet(view, u)
				if bu == other {
					seed = true
					break
				}
				if bu != own {
					boundary = true
				}
			}
		}
		if seed {
			//kappa:allow hotalloc amortized growth of the caller's reusable band
			dst = append(dst, v)
		} else if !boundary {
			x.in[v] = false
			continue
		}
		list[kept] = v
		kept++
	}
	x.lists[own] = list[:kept]
	return dst
}

// Patch records that the pair (a, b) moved the given nodes to the other
// block of the pair; view already shows them there. Every moved node joins
// the list of its new block (its entry in the old one is dropped by the next
// compaction, which precedes any move back), and so does every neighbour it
// left behind that was not listed yet. An arrival lowers its new block's
// MinWeight; a departure raises nothing. With grouped rows, every neighbour
// of a moved node gets bits a and b in its row's stale word, and every node
// without a row that this made boundary is listed for the next Regroup.
//
//kappa:hotpath
func (x *BoundaryIndex) Patch(view []int32, a, b int32, moved []int32) {
	g := x.p.G
	for _, v := range moved {
		to := ViewGet(view, v)
		x.minW[to] = min(x.minW[to], g.NodeWeight(v))
		x.in[v] = true
		//kappa:allow hotalloc amortized growth of a boundary list
		x.lists[to] = append(x.lists[to], v)
		x.listUngrouped(v, a)
	}
	for _, v := range moved {
		from := a + b - ViewGet(view, v)
		for _, u := range g.Adj(v) {
			if x.grouped {
				x.markStale(u, a, b)
			}
			if ViewGet(view, u) == from && !x.in[u] {
				x.in[u] = true
				//kappa:allow hotalloc amortized growth of a boundary list
				x.lists[from] = append(x.lists[from], u)
				x.listUngrouped(u, a)
			}
		}
	}
}

// Quotient returns the quotient graph of the indexed partition, sorted by
// (A, B), its rows built one after another. The slice is the index's own
// scratch: the next Quotient or QuotientOn call overwrites it.
func (x *BoundaryIndex) Quotient() []QEdge {
	return x.QuotientOn(par.Start(1, 0))
}

// quotientScratch is what one member needs to build a row: the weight to
// each higher block, which of them were seen, and their list.
type quotientScratch struct {
	row     []int64
	seen    []bool
	touched []int32
}

// QuotientOn is Quotient with the rows — one per block, independent of each
// other — a batch on run, each member building rows in scratch of its own.
// Rows are joined in block order, so the result does not depend on who built
// which.
func (x *BoundaryIndex) QuotientOn(run *par.Crew) []QEdge {
	members := run.Members()
	k := x.p.K
	for len(x.qscratch) < members {
		x.qscratch = append(x.qscratch, quotientScratch{})
	}
	for m := range x.qscratch[:members] {
		if s := &x.qscratch[m]; cap(s.row) < k {
			s.row, s.seen = make([]int64, k), make([]bool, k)
		}
	}
	if cap(x.qrows) < k {
		x.qrows = make([][]QEdge, k)
	}
	x.qrows = x.qrows[:k]
	run.Run(k, x.quotientRow)
	edges := x.qedges[:0]
	for _, r := range x.qrows {
		edges = append(edges, r...)
	}
	x.qedges = edges
	return edges
}

// quotientRow builds block a's row: every cut edge to a higher block is
// counted from a's boundary list — a grouped row with a clear stale word by
// its groups of higher blocks, any other row edge by edge — scattered into a
// k-length row and emitted in order of B.
func (x *BoundaryIndex) quotientRow(member, a int) {
	p, s := x.p, &x.qscratch[member]
	s.touched = s.touched[:0]
	edges := x.qrows[a][:0]
	for _, v := range x.lists[a] {
		if p.Block[v] != int32(a) {
			continue
		}
		if gr, ok := x.trusted(v, ^uint64(0)); ok {
			higher := gr.mask >> (a + 1) << (a + 1)
			at := gr.first + int32(bits.OnesCount64(gr.mask)-bits.OnesCount64(higher))
			for m := higher; m != 0; m &= m - 1 {
				s.add(int32(bits.TrailingZeros64(m)), x.groups[at].w)
				at++
			}
			continue
		}
		ws := p.G.AdjWeights(v)
		for i, u := range p.G.Adj(v) {
			if bu := p.Block[u]; bu > int32(a) {
				s.add(bu, ws[i])
			}
		}
	}
	slices.Sort(s.touched)
	for _, b := range s.touched {
		edges = append(edges, QEdge{int32(a), b, s.row[b]})
		s.row[b], s.seen[b] = 0, false
	}
	x.qrows[a] = edges
}

// add adds w to the row's weight toward block b.
func (s *quotientScratch) add(b int32, w int64) {
	if !s.seen[b] {
		s.seen[b] = true
		s.touched = append(s.touched, b)
	}
	s.row[b] += w
}
