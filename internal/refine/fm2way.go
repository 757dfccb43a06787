// Package refine implements the refinement phase of §5: band-limited
// two-way FM local search between pairs of blocks (the paper's parallel
// refinement unit), the queue selection strategies of §5.2 (TopGain,
// TopGainMaxLoad, MaxLoad, Alternate), and the greedy k-way refinement and
// rebalancing used by the Metis-style baselines.
//
// Pair searches run against a Workspace holding the band arrays and the two
// gain queues, and draw the band's seeds from a part.BoundaryIndex that the
// level keeps current, so a search costs work proportional to its band;
// reusing one Workspace across the pairs, levels and global iterations a
// goroutine processes makes the inner loop allocation-free (see
// RefinePairIndexed). Results are byte-identical with fresh and reused
// workspaces, and with a kept and a one-shot index.
package refine

import (
	"fmt"

	"repro/internal/part"
	"repro/internal/pq"
	"repro/internal/rng"
)

// Strategy selects which of the two FM priority queues yields the next move.
type Strategy int

const (
	// TopGain uses the queue promising the larger gain, falling back to
	// MaxLoad when a block is overloaded. The paper's default: ~3.2% better
	// than MaxLoad.
	TopGain Strategy = iota
	// TopGainMaxLoad is TopGain with ties broken toward the heavier block.
	TopGainMaxLoad
	// MaxLoad always moves a node out of the heavier block.
	MaxLoad
	// Alternate alternates between the two blocks (the original FM rule).
	Alternate
)

// String returns the paper's name for the strategy.
func (s Strategy) String() string {
	switch s {
	case TopGain:
		return "TopGain"
	case TopGainMaxLoad:
		return "TopGainMaxLoad"
	case MaxLoad:
		return "MaxLoad"
	case Alternate:
		return "Alternate"
	default:
		return fmt.Sprintf("refine.Strategy(%d)", int(s))
	}
}

// TwoWayConfig controls one pairwise local search.
type TwoWayConfig struct {
	Strategy  Strategy
	Patience  float64 // α: abort after α·min(|A|,|B|) fruitless moves (on the band)
	BandDepth int     // BFS depth from the boundary (Table 2: 1 / 5 / 20)
}

// Workspace owns the reusable storage of pairwise FM searches: the
// global-size band membership, local-id and start-gain tables, the band-size
// side/move arrays, the two gain queues with their runs (staged entries,
// packed keys) and heaps, the queue-seeding permutation, the move logs of the
// two seeded runs, the search state and its generator, and the one-shot
// boundary index of the standalone entry points. One goroutine reuses one
// Workspace across every pair it refines, on every level and global
// iteration; the arrays grow to the finest graph once and stay there. A
// Workspace must not be shared between concurrent searches.
type Workspace struct {
	inBand  []bool  // global-size; all false between searches
	localID []int32 // global-size; valid only where inBand
	gain0   []int64 // global-size, by local id: band gains in the state both runs start from

	band    []int32
	side    []byte
	moved   []bool
	qa, qb  pq.GainQueue
	perm    []int
	movesA  []int32
	movesB  []int32
	applied []int32 // global ids of the winning prefix, for the index patch

	search  pairSearch
	rng     rng.RNG
	oneShot part.BoundaryIndex
}

// NewWorkspace returns an empty workspace; it grows lazily to the graphs it
// refines.
func NewWorkspace() *Workspace { return &Workspace{} }

// PairIndex returns the workspace's own boundary index, reset to blocks a
// and b of p as seen through view — one scan of the nodes of a ∪ b. It is
// the index for RefinePairIndexed of a caller that refines one pair, once
// (RefinePairViewWS) or pass after pass (initpart's bisection), and has no
// level-wide index to draw from.
func (ws *Workspace) PairIndex(p *part.Partition, view []int32, a, b int32) *part.BoundaryIndex {
	ws.oneShot.Reset(nil, p, view, a, b)
	return &ws.oneShot
}

// growGlobal sizes the global-node-indexed tables for a graph of n nodes.
// gain0 is among them because the band, which indexes it, is still growing
// while the walk that builds it writes gains. New inBand cells are zero
// (false) by construction; recycled cells were cleaned by the previous
// search's release.
func (ws *Workspace) growGlobal(n int) {
	if cap(ws.inBand) < n {
		ws.inBand = make([]bool, n)
		ws.localID = make([]int32, n)
		ws.gain0 = make([]int64, n)
	}
	ws.inBand = ws.inBand[:n]
	ws.localID = ws.localID[:n]
	ws.gain0 = ws.gain0[:n]
}

// growBand sizes the band-indexed tables for a band of n nodes; a run makes
// at most n moves.
func (ws *Workspace) growBand(n int) {
	if cap(ws.side) < n {
		ws.side = make([]byte, n)
		ws.moved = make([]bool, n)
		ws.perm = make([]int, n)
		ws.movesA = make([]int32, n)
		ws.movesB = make([]int32, n)
	}
	ws.side = ws.side[:n]
	ws.moved = ws.moved[:n]
	ws.perm = ws.perm[:n]
	ws.movesA = ws.movesA[:n]
	ws.movesB = ws.movesB[:n]
}

// pairSearch is the working state of one two-way FM search. It never mutates
// the partition: both seeded searches of a block pair run on copies and the
// better result is applied afterwards (§5: "the better partitioning of the
// two blocks is adopted").
type pairSearch struct {
	p      *part.Partition
	ws     *Workspace
	view   []int32 // block membership snapshot for reads outside the pair
	a, b   int32
	band   []int32 // global ids of band nodes
	walked int     // band[:walked] have their start gain and cut share recorded
	side   []byte  // 0 = in a, 1 = in b (current, local copy)
	moved  []bool
	qa, qb *pq.GainQueue
	cA, cB int64
	cut    int64 // current cut between a and b

	n    [2]int   // band nodes per side in the start state
	minW [2]int64 // the lightest of them; meaningless for an empty side
}

// result describes the outcome of one seeded search: the move prefix to
// apply and the value it achieves.
type result struct {
	moves     []int32 // local ids, in order; prefix up to bestLen is applied
	bestLen   int
	imbalance int64
	cut       int64
}

// walk visits the adjacency of band node li once, in the state both runs
// start from, where every node's side is its entry in view: it records the
// node's gain w(v→other) − w(v→own) in ws.gain0, counting only edges inside
// the pair (edges to third blocks stay cut either way), and adds an a-side
// node's weight toward b to the pair cut — every a↔b edge once, both
// endpoints of a cut edge being boundary nodes and hence in the band. With
// expand set it also takes v's BFS step, appending its same-block neighbours
// that are not in the band yet.
//
//kappa:hotpath
func (s *pairSearch) walk(li int, expand bool) {
	g, view, inBand, band := s.p.G, s.view, s.ws.inBand, s.band
	v := band[li]
	bv := part.ViewGet(view, v)
	other := s.a + s.b - bv
	wts := g.AdjWeights(v)
	var wOwn, wOther int64
	for i, u := range g.Adj(v) {
		switch part.ViewGet(view, u) {
		case bv:
			wOwn += wts[i]
			if expand && !inBand[u] {
				inBand[u] = true
				//kappa:allow hotalloc amortized growth of the reusable workspace band
				band = append(band, u)
			}
		case other:
			wOther += wts[i]
		}
	}
	s.band = band
	s.ws.gain0[li] = wOther - wOwn
	if bv == s.a {
		s.cut += wOther
	}
}

// buildBand collects the nodes of blocks a and b within depth BFS steps of
// the a↔b boundary (§5.2, Figure 2: only a small band around the boundary is
// exchanged and searched) into s.band, marking them in ws.inBand. The
// depth-1 seeds come from idx's lists a and b in node order; block
// membership is read from view, which may be a snapshot taken before
// concurrent pair refinements started; entries for blocks a and b are only
// ever written by this pair's owner, so the snapshot is exact where it
// matters. The BFS frontier of each depth is the band segment appended
// during the previous depth, so no separate frontier storage is needed, and
// the walk that expands a node is the walk that records its gain; the last
// layer is left to walkRest.
func (s *pairSearch) buildBand(idx *part.BoundaryIndex, depth int) {
	ws := s.ws
	s.band = idx.Seeds(ws.band[:0], s.view, s.a, s.b)
	for _, v := range s.band {
		ws.inBand[v] = true
	}
	for d := 1; d < depth && s.walked < len(s.band); d++ {
		for hi := len(s.band); s.walked < hi; s.walked++ {
			s.walk(s.walked, true)
		}
	}
	ws.band = s.band
}

// walkRest records gain and cut share of the band's unexpanded last layer —
// all of a depth-1 band, nothing of a band the BFS exhausted.
func (s *pairSearch) walkRest() {
	for ; s.walked < len(s.band); s.walked++ {
		s.walk(s.walked, false)
	}
}

// newPairSearch builds the band of pair (a, b) and the search state on it,
// in ws: sides, local ids and the lightest node of each side. Gains and the
// pair cut are complete once walkRest has run.
func newPairSearch(idx *part.BoundaryIndex, p *part.Partition, ws *Workspace, view []int32, a, b int32, cfg TwoWayConfig) *pairSearch {
	depth := cfg.BandDepth
	if depth < 1 {
		depth = 1
	}
	ws.growGlobal(p.G.NumNodes())
	s := &ws.search
	*s = pairSearch{
		p: p, ws: ws, view: view, a: a, b: b,
		cA: p.BlockWeight(a),
		cB: p.BlockWeight(b),
	}
	s.buildBand(idx, depth)
	ws.growBand(len(s.band))
	s.side, s.moved = ws.side, ws.moved
	for li, v := range s.band {
		ws.localID[v] = int32(li)
		s.moved[li] = false
		side := byte(0)
		if part.ViewGet(view, v) == b {
			side = 1
		}
		s.side[li] = side
		if w := p.G.NodeWeight(v); s.n[side] == 0 || w < s.minW[side] {
			s.minW[side] = w
		}
		s.n[side]++
	}
	return s
}

// release cleans the workspace's global tables for the next search.
func (s *pairSearch) release() {
	inBand := s.ws.inBand
	for _, v := range s.band {
		inBand[v] = false
	}
}

func (s *pairSearch) imbalance() int64 {
	lmax := s.p.Lmax()
	im := int64(0)
	if d := s.cA - lmax; d > im {
		im = d
	}
	if d := s.cB - lmax; d > im {
		im = d
	}
	return im
}

// infeasible is the balance rule of a move: a node of weight w may leave a
// block of weight from for one of weight to only if the target stays under
// Lmax (to+w <= lmax), or if the move strictly reduces an overload of the
// source (to+w < from). It is monotone in w — a move that is infeasible
// stays so for every heavier node — so asked of a side's lightest band node,
// or of any lower bound on it, it answers for the whole side. w is compared,
// never added to, so part.NoNode reads as infeasible without overflowing.
//
//kappa:hotpath
func infeasible(from, to, w, lmax int64) bool {
	return w > lmax-to && (from <= lmax || w >= from-to)
}

// stuck reports that no node of block a may move to b and none of b to a at
// the blocks' current weights, judged from idx's lower bounds on the two
// blocks' lightest nodes alone. The bounds are at most the lightest band
// node of their side, so a stuck pair is one whose search would find both
// sides blocked before its first pop — without building the band.
//
//kappa:hotpath
func stuck(idx *part.BoundaryIndex, p *part.Partition, a, b int32) bool {
	cA, cB, lmax := p.BlockWeight(a), p.BlockWeight(b), p.Lmax()
	return infeasible(cA, cB, idx.MinWeight(a), lmax) && infeasible(cB, cA, idx.MinWeight(b), lmax)
}

// blocked reports, per side, whether no band node of that side can move at
// the current block weights. While both sides are blocked — or blocked
// where they still have queued nodes — a run can only pop and discard:
// block weights change with moves alone, so it has made its last one.
//
//kappa:hotpath
func (s *pairSearch) blocked() (a, b bool) {
	lmax := s.p.Lmax()
	return s.n[0] == 0 || infeasible(s.cA, s.cB, s.minW[0], lmax),
		s.n[1] == 0 || infeasible(s.cB, s.cA, s.minW[1], lmax)
}

// run executes one seeded FM search and returns the best prefix found,
// logging moves into the moves buffer, which holds a band's worth. It stops
// when patience runs out or when neither queue can yield a feasible move,
// and restores s.side/s.moved/s.cA/s.cB/s.cut before returning so the
// search can be repeated with another seed.
//
//kappa:hotpath
func (s *pairSearch) run(cfg TwoWayConfig, r *rng.RNG, moves []int32) result {
	n := len(s.band)
	ws := s.ws
	ws.qa.Reset(n)
	ws.qb.Reset(n)
	s.qa, s.qb = &ws.qa, &ws.qb
	// "The queues are initialized in random order with the nodes at the
	// partition boundary" — we seed them with the whole band (depth-1 bands
	// are exactly the boundary), one random tiebreak per node in the order
	// of a random permutation, into the queues' runs: much of a band is
	// never popped, and an entry leaves its run only when its gain changes.
	perm, queues := ws.perm, [2]*pq.GainQueue{s.qa, s.qb}
	r.PermInto(perm)
	for _, li := range perm {
		queues[s.side[li]].Stage(int32(li), ws.gain0[li], uint32(r.Uint64()))
	}
	s.qa.Seal()
	s.qb.Seal()
	patienceLimit := int(cfg.Patience * float64(min(s.n[0], s.n[1])))
	if patienceLimit < 1 {
		patienceLimit = 1
	}

	res := result{imbalance: s.imbalance(), cut: s.cut}
	startCut := res.cut
	startCA, startCB := s.cA, s.cB
	lmax := s.p.Lmax()
	nMoves := 0
	fruitless := 0
	alternateNext := byte(0)

	blockedA, blockedB := s.blocked()
	for !(blockedA || s.qa.Empty()) || !(blockedB || s.qb.Empty()) {
		q := s.chooseQueue(cfg.Strategy, alternateNext, r)
		alternateNext = 1 - alternateNext
		li, g := q.PopMax()
		v := s.band[li]
		w := s.p.G.NodeWeight(v)
		var from, to *int64
		if s.side[li] == 0 {
			from, to = &s.cA, &s.cB
		} else {
			from, to = &s.cB, &s.cA
		}
		if infeasible(*from, *to, w, lmax) {
			continue // discard
		}
		// Execute the move on the local state.
		*from -= w
		*to += w
		blockedA, blockedB = s.blocked()
		s.side[li] = 1 - s.side[li]
		s.moved[li] = true
		s.cut -= g
		moves[nMoves] = li
		nMoves++
		// Update queued neighbors: +2ω for neighbors left behind, −2ω for
		// neighbors in the block v joined.
		adj := s.p.G.Adj(v)
		wts := s.p.G.AdjWeights(v)
		inBand, localID := ws.inBand, ws.localID
		for i, u := range adj {
			if !inBand[u] {
				continue
			}
			ul := localID[u]
			if s.moved[ul] {
				continue
			}
			delta := 2 * wts[i]
			if s.side[ul] == s.side[li] {
				delta = -delta
			}
			s.qa.AdjustBy(ul, delta)
			s.qb.AdjustBy(ul, delta)
		}
		// Track the lexicographically best (imbalance, cut) state.
		imb := s.imbalance()
		if imb < res.imbalance || (imb == res.imbalance && s.cut < res.cut) {
			res.imbalance, res.cut = imb, s.cut
			res.bestLen = nMoves
			fruitless = 0
		} else {
			fruitless++
			if fruitless > patienceLimit {
				break
			}
		}
	}

	// Restore local state for a potential second seeded run.
	res.moves = moves[:nMoves]
	for _, li := range res.moves {
		s.side[li] = 1 - s.side[li]
		s.moved[li] = false
	}
	s.cA, s.cB = startCA, startCB
	s.cut = startCut
	return res
}

// chooseQueue implements the queue selection strategies of §5.2 over two
// queues that are not both empty.
//
//kappa:hotpath
func (s *pairSearch) chooseQueue(st Strategy, alternateNext byte, r *rng.RNG) *pq.GainQueue {
	qa, qb := s.qa, s.qb
	if qa.Empty() {
		return qb
	}
	if qb.Empty() {
		return qa
	}
	heavier := qa
	if s.cB > s.cA || (s.cA == s.cB && r.Bool()) {
		heavier = qb
	}
	switch st {
	case MaxLoad:
		return heavier
	case Alternate:
		if alternateNext == 0 {
			return qa
		}
		return qb
	case TopGain, TopGainMaxLoad:
		// Overload exception: without resolving to MaxLoad in an overloaded
		// situation the balance constraint cannot be met (§5.2).
		if s.cA > s.p.Lmax() || s.cB > s.p.Lmax() {
			return heavier
		}
		_, ga := qa.Max()
		_, gb := qb.Max()
		if ga > gb {
			return qa
		}
		if gb > ga {
			return qb
		}
		if st == TopGainMaxLoad {
			return heavier
		}
		if r.Bool() {
			return qa
		}
		return qb
	default:
		//kappa:allow panicfree the strategy enum is internal to the refiner and exhaustive
		panic("refine: unknown strategy")
	}
}

// RefinePairOutcome reports what a pairwise refinement achieved. BandSize
// counts the band the call built: a pair the index's weight bounds prove
// stuck returns before building one and reports 0, though its boundary is
// not empty.
type RefinePairOutcome struct {
	Gain     int64 // cut decrease between the pair (can be negative only if imbalance improved)
	Moves    int
	BandSize int
}

// RefinePairViewWS refines the partition between blocks a and b with two
// independently seeded FM searches, adopting the better result (§5). It
// mutates p only by applying the winning move prefix. Reads of block
// membership go through view: during parallel refinement, disjoint pairs run
// concurrently and each passes a snapshot of the block array taken before the
// round, so that reads of *foreign* blocks never race with other pairs'
// writes (for nodes of blocks a and b the snapshot is exact, because only
// this pair may move them); a lone caller passes p.Block. It has no index to
// draw the band's seeds from, so it runs RefinePairIndexed on the workspace's
// one-shot PairIndex. The outcome is byte-identical with a fresh and a reused
// workspace.
func RefinePairViewWS(ws *Workspace, p *part.Partition, view []int32, a, b int32, cfg TwoWayConfig, seedA, seedB uint64) RefinePairOutcome {
	return RefinePairIndexed(ws, ws.PairIndex(p, view, a, b), p, view, a, b, cfg, seedA, seedB)
}

// RefinePairIndexed is the pair-refinement kernel, and the allocation-free
// form the pipeline uses: the band's seeds come from idx, which indexes p
// and which the call leaves current by patching lists a and b with the moves
// it applied. Under part.BoundaryIndex's ownership rule, disjoint pairs may
// run concurrently against one index, each with its own workspace.
//
// A pair neither seeded run could move a node of costs what it takes to know
// that. If both blocks are too full to take even the other's lightest node
// (stuck: two comparisons against idx's per-block bounds) the call returns
// the zero outcome having read no list and built no band. Otherwise, if the
// band holds no feasible move in the start state — both blocks too full for
// the other's lightest band node, or no band at all — it is done once the
// band is built: no gain of the unexpanded layer is computed and no queue is
// filled. The first test implies the second, so skipping the band changes
// no partition; the list compaction it also skips is unobservable (Seeds
// sorts what it returns, Quotient reads lists through p.Block).
func RefinePairIndexed(ws *Workspace, idx *part.BoundaryIndex, p *part.Partition, view []int32, a, b int32, cfg TwoWayConfig, seedA, seedB uint64) RefinePairOutcome {
	ws.applied = ws.applied[:0]
	if stuck(idx, p, a, b) {
		return RefinePairOutcome{}
	}
	s := newPairSearch(idx, p, ws, view, a, b, cfg)
	out := RefinePairOutcome{BandSize: len(s.band)}
	if blockedA, blockedB := s.blocked(); !blockedA || !blockedB {
		s.walkRest()
		ws.rng.Seed(seedA)
		best := s.run(cfg, &ws.rng, ws.movesA)
		ws.rng.Seed(seedB)
		if r2 := s.run(cfg, &ws.rng, ws.movesB); r2.imbalance < best.imbalance || (r2.imbalance == best.imbalance && r2.cut < best.cut) {
			best = r2
		}
		// Apply the winning prefix to the real partition. The side arrays
		// were restored by run, so side is each node's original side; a node
		// appears at most once in the move list.
		shared := &s.view[0] == &p.Block[0]
		for _, li := range best.moves[:best.bestLen] {
			v := s.band[li]
			to := s.b
			if s.side[li] == 1 {
				to = s.a
			}
			p.Move(v, to)
			if !shared {
				part.ViewSet(s.view, v, to) // keep the caller's snapshot exact for this pair
			}
			ws.applied = append(ws.applied, v)
		}
		idx.Patch(view, a, b, ws.applied)
		out.Gain, out.Moves = s.cut-best.cut, best.bestLen
	}
	s.release()
	return out
}
