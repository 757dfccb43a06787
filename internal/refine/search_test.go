package refine

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/rng"
)

// startState says how a differential step sets Lmax from the weights of the
// pair it is about to refine.
type startState int

const (
	// feasible leaves room in both blocks.
	feasible startState = iota
	// overloaded makes the lighter block exactly full and the heavier one
	// overloaded: nothing may enter the heavier block, and a node may enter
	// the lighter one only through the exception that it strictly reduces
	// the overload.
	overloaded
	// full sets Lmax to the heavier block's weight: nothing may enter it,
	// and the lighter block takes what the difference allows. Blocks of
	// equal weight are stuck from the start.
	full
)

func (st startState) lmax(cA, cB int64) int64 {
	switch st {
	case overloaded:
		return min(cA, cB)
	case full:
		return max(cA, cB)
	}
	return 2 * max(cA, cB)
}

// searchStep is one pair refinement of a differential sequence together
// with the balance situation it starts in.
type searchStep struct {
	pairStep
	state startState
}

// searchCoverage counts what a differential sequence exercised.
type searchCoverage struct {
	stuck    int // steps both of whose runs could not move a node
	proved   int // of those, steps the kernel proved stuck from the index's weight bounds
	discards int // infeasible pops of the reference runs
	moves    int // moves applied
	relieved int // moves applied to pairs starting in the overloaded state
}

func (c *searchCoverage) add(o searchCoverage) {
	c.stuck += o.stuck
	c.proved += o.proved
	c.discards += o.discards
	c.moves += o.moves
	c.relieved += o.relieved
}

// expectOutcome is the kernel's contract against the reference search, which
// builds the band of every pair. A call the weight bounds proved stuck
// (proved: stuck() held on the kernel's index before the call) must return
// the zero outcome, and must have been right: the reference found every
// queued node of both sides infeasible and moved nothing. Any other call
// must report exactly what the reference reports. It returns "" or what is
// wrong.
func expectOutcome(proved bool, got, want RefinePairOutcome, counts searchCounts) string {
	switch {
	case !proved && got != want:
		return fmt.Sprintf("outcome %+v, reference %+v", got, want)
	case proved && got != RefinePairOutcome{}:
		return fmt.Sprintf("proved stuck but returned %+v", got)
	case proved && (want.Moves != 0 || want.Gain != 0 || counts.moves != 0 || counts.discards != counts.pushes):
		return fmt.Sprintf("proved stuck, but the reference search was not blocked on both sides: %+v %+v", want, counts)
	}
	return ""
}

// liveBoundary is list as a compaction leaves it: the nodes still in block
// blk that have a neighbour outside it, in list order.
func liveBoundary(p *part.Partition, list []int32, blk int32) []int32 {
	var live []int32
	for _, v := range list {
		if p.Block[v] == blk && slices.ContainsFunc(p.G.Adj(v), func(u int32) bool { return p.Block[u] != blk }) {
			live = append(live, v)
		}
	}
	return live
}

// checkSearchMatchesReference applies steps to p through the kernel, with a
// kept index (its rows regrouped every third step) and with the one-shot index, and to clones of p through the
// reference search. After every call the outcomes (see expectOutcome), the
// applied move prefixes, the partitions and the two index lists of the pair
// must be equal. A pair stuck once its band is built leaves its lists as the
// draining search leaves them; a pair proved stuck beforehand leaves them
// untouched, which must be the reference's lists but for the entries a
// compaction drops — and exactly the reference's lists again after the next
// call that builds a band from them. The kept index's bounds go stale (they
// are never raised) while the one-shot index's are exact, so the two may
// disagree on whether a call is proved stuck, never on what it does.
func checkSearchMatchesReference(t *testing.T, label string, p *part.Partition, steps []searchStep) searchCoverage {
	t.Helper()
	kept, keptRef := p, part.FromBlocks(p.G, p.K, p.Eps, slices.Clone(p.Block))
	one, oneRef := part.FromBlocks(p.G, p.K, p.Eps, slices.Clone(p.Block)), part.FromBlocks(p.G, p.K, p.Eps, slices.Clone(p.Block))
	idx, idxRef := part.NewBoundaryIndex(kept), part.NewBoundaryIndex(keptRef)
	ws, wsRef, wsOne, wsOneRef := NewWorkspace(), NewWorkspace(), NewWorkspace(), NewWorkspace()
	var cov searchCoverage
	for i, st := range steps {
		if i%3 == 0 { // a global iteration starts: the kept index regroups its rows
			idx.Regroup(nil)
		}
		a, b := st.a, st.b
		lmax := st.state.lmax(kept.BlockWeight(a), kept.BlockWeight(b))
		for _, q := range []*part.Partition{kept, keptRef, one, oneRef} {
			q.SetLmax(lmax)
		}
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("%s step %d pair (%d,%d) %v depth %d state %d: %s", label, i, a, b, st.cfg.Strategy, st.cfg.BandDepth, st.state, fmt.Sprintf(format, args...))
		}
		sameLists := func(what string, proved bool, q *part.Partition, got, want *part.BoundaryIndex) {
			t.Helper()
			for _, blk := range []int32{a, b} {
				list := got.List(blk)
				if proved {
					list = liveBoundary(q, list, blk)
				}
				if !slices.Equal(list, want.List(blk)) {
					fail("%s index list %d is %v, reference %v", what, blk, list, want.List(blk))
				}
			}
		}

		proved := stuck(idx, kept, a, b)
		listA, listB, band := slices.Clone(idx.List(a)), slices.Clone(idx.List(b)), slices.Clone(ws.band)
		want, counts := refinePairReference(wsRef, idxRef, keptRef, keptRef.Block, a, b, st.cfg, st.seedA, st.seedB)
		got := RefinePairIndexed(ws, idx, kept, kept.Block, a, b, st.cfg, st.seedA, st.seedB)
		if msg := expectOutcome(proved, got, want, counts); msg != "" {
			fail("%s", msg)
		}
		if proved && !(slices.Equal(idx.List(a), listA) && slices.Equal(idx.List(b), listB) && slices.Equal(ws.band, band)) {
			fail("proved stuck, but the call touched its lists or the workspace's band")
		}
		if !slices.Equal(ws.applied, wsRef.applied) {
			fail("applied moves %v, reference %v", ws.applied, wsRef.applied)
		}
		if !slices.Equal(kept.Block, keptRef.Block) {
			fail("partitions diverge")
		}
		sameLists("kept", proved, kept, idx, idxRef)

		provedOne := stuck(wsOne.PairIndex(one, one.Block, a, b), one, a, b)
		if proved && !provedOne {
			fail("the kept index's bounds prove the pair stuck, the exact ones do not")
		}
		wantOne, countsOne := refinePairReference(wsOneRef, wsOneRef.PairIndex(oneRef, oneRef.Block, a, b), oneRef, oneRef.Block, a, b, st.cfg, st.seedA, st.seedB)
		gotOne := RefinePairViewWS(wsOne, one, one.Block, a, b, st.cfg, st.seedA, st.seedB)
		if msg := expectOutcome(provedOne, gotOne, wantOne, countsOne); msg != "" || wantOne != want || !slices.Equal(one.Block, kept.Block) {
			fail("one-shot outcome %+v (reference %+v, kept index's reference %+v) %s", gotOne, wantOne, want, msg)
		}
		sameLists("one-shot", provedOne, one, &wsOne.oneShot, &wsOneRef.oneShot)

		if err := kept.Validate(); err != nil {
			t.Fatal(err)
		}
		if counts.pushes > 0 && counts.moves == 0 && counts.discards == counts.pushes {
			cov.stuck++
			if proved {
				cov.proved++
			}
		}
		cov.discards += counts.discards
		cov.moves += got.Moves
		if st.state == overloaded {
			cov.relieved += got.Moves
		}
	}
	return cov
}

// weighted returns g with node weights 1..5 drawn from r.
func weighted(g *graph.Graph, r *rng.RNG) *graph.Graph {
	b := graph.NewBuilder(g.NumNodes())
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		b.SetNodeWeight(v, 1+int64(r.Intn(5)))
		wts := g.AdjWeights(v)
		for i, u := range g.Adj(v) {
			if v < u {
				b.AddEdge(v, u, wts[i])
			}
		}
	}
	return b.Build()
}

// TestPairSearchMatchesReference runs the kernel against the reference
// search over generator families × the four strategies × band depths × unit
// and weighted nodes × start states with room, with one block overloaded and
// the other full, and with both blocks full.
func TestPairSearchMatchesReference(t *testing.T) {
	const k = 4
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"rgg", gen.RGG(9, 3)},
		{"rmat", gen.RMAT(8, 8, 3)},
		{"grid", gen.Grid2D(20, 20)},
		{"delaunay", gen.DelaunayX(9, 3)},
	}
	var total [3]searchCoverage
	r := rng.New(11)
	for _, fam := range families {
		for _, g := range []*graph.Graph{fam.g, weighted(fam.g, r)} {
			for strategy := TopGain; strategy <= Alternate; strategy++ {
				for _, depth := range []int{1, 5, 1 << 30} {
					for state := feasible; state <= full; state++ {
						// Contiguous blocks of equal size, a few nodes
						// scattered: unit-weight pairs start both-full
						// states stuck or a move away from it.
						block := make([]int32, g.NumNodes())
						for v := range block {
							block[v] = int32(v * k / len(block))
						}
						for i := r.Intn(4); i > 0; i-- {
							block[r.Intn(len(block))] = int32(r.Intn(k))
						}
						var steps []searchStep
						for i := 0; i < 6; i++ {
							a := int32(r.Intn(k))
							b := (a + 1 + int32(r.Intn(k-1))) % k
							steps = append(steps, searchStep{pairStep{a, b,
								TwoWayConfig{Strategy: strategy, Patience: 0.3, BandDepth: depth},
								r.Uint64(), r.Uint64()}, state})
						}
						label := fmt.Sprintf("%s max node weight %d", fam.name, g.MaxNodeWeight())
						total[state].add(checkSearchMatchesReference(t, label, part.FromBlocks(g, k, 0.03, block), steps))
					}
				}
			}
		}
	}
	// The matrix must reach what it is there for: moves through the overload
	// exception, discarded pops, and pairs stuck from the start.
	t.Logf("coverage by start state: %+v", total)
	if c := total[feasible]; c.moves == 0 || c.stuck != 0 {
		t.Errorf("feasible starts: %+v", c)
	}
	if c := total[overloaded]; c.relieved == 0 || c.discards == 0 {
		t.Errorf("overloaded starts: %+v", c)
	}
	if c := total[full]; c.stuck == 0 || c.moves == 0 || c.discards == 0 || c.proved == 0 {
		t.Errorf("both-full starts: %+v", c)
	}
}

// TestBlockedMatchesBruteForce checks the stuck test against what it stands
// for: over a table of block weights and bounds, asking the lightest node
// answers for every node of a side (and infeasible is the rule run used to
// spell out, with part.NoNode never feasible and never overflowing); on real
// bands, blocked agrees with trying every queued node.
func TestBlockedMatchesBruteForce(t *testing.T) {
	weights := [][]int64{{1}, {1, 1, 3}, {2, 5}, {3}, {4, 2, 7}, {0, 2}}
	for lmax := int64(0); lmax <= 12; lmax++ {
		for from := int64(0); from <= 16; from++ {
			for to := int64(0); to <= 16; to++ {
				if !infeasible(from, to, part.NoNode, lmax) {
					t.Fatalf("from %d to %d lmax %d: an empty block's sentinel weight can move", from, to, lmax)
				}
				for _, ws := range weights {
					all := true
					for _, w := range ws {
						spelled := to+w > lmax && !(from > lmax && to+w < from)
						if infeasible(from, to, w, lmax) != spelled {
							t.Fatalf("infeasible(%d,%d,%d,%d) = %v", from, to, w, lmax, !spelled)
						}
						all = all && spelled
					}
					if got := infeasible(from, to, slices.Min(ws), lmax); got != all {
						t.Fatalf("from %d to %d lmax %d weights %v: lightest node says %v, all nodes %v", from, to, lmax, ws, got, all)
					}
				}
			}
		}
	}

	r := rng.New(4)
	g := weighted(gen.RGG(9, 5), r)
	const k = 3
	var sawBlocked, sawFree bool
	for round := 0; round < 200; round++ {
		block := make([]int32, g.NumNodes())
		for v := range block {
			block[v] = int32(v * k / len(block))
		}
		p := part.FromBlocks(g, k, 0.03, block)
		a := int32(r.Intn(k))
		b := (a + 1 + int32(r.Intn(k-1))) % k
		lo, hi := min(p.BlockWeight(a), p.BlockWeight(b)), max(p.BlockWeight(a), p.BlockWeight(b))
		p.SetLmax(lo - 6 + int64(r.Intn(int(hi-lo)+12)))
		s := newPairSearch(part.NewBoundaryIndex(p), p, NewWorkspace(), p.Block, a, b, TwoWayConfig{BandDepth: 1 + r.Intn(3)})
		wantA, wantB := true, true
		for li, v := range s.band {
			w := g.NodeWeight(v)
			if s.side[li] == 0 {
				wantA = wantA && infeasible(s.cA, s.cB, w, p.Lmax())
			} else {
				wantB = wantB && infeasible(s.cB, s.cA, w, p.Lmax())
			}
		}
		gotA, gotB := s.blocked()
		if gotA != wantA || gotB != wantB {
			t.Fatalf("round %d: blocked() = (%v,%v), brute force (%v,%v)", round, gotA, gotB, wantA, wantB)
		}
		sawBlocked = sawBlocked || (gotA && gotB)
		sawFree = sawFree || (!gotA && !gotB)
		s.release()
	}
	if !sawBlocked || !sawFree {
		t.Fatalf("bands never covered both answers (blocked %v, free %v)", sawBlocked, sawFree)
	}
}

// TestStuckPairCostsNothing pins what a pair proved stuck pays: with both
// blocks at Lmax and a boundary between them, the call returns the zero
// outcome, reads and compacts no list, leaves the band of the workspace's
// last search alone and allocates nothing. One unit of room brings the
// search back.
func TestStuckPairCostsNothing(t *testing.T) {
	g := gen.Grid2D(16, 16)
	block := make([]int32, g.NumNodes())
	for v := range block {
		block[v] = int32(v * 4 / len(block))
	}
	p := part.FromBlocks(g, 4, 0.03, block)
	idx, ws, cfg := part.NewBoundaryIndex(p), NewWorkspace(), defaultCfg()
	RefinePairIndexed(ws, idx, p, p.Block, 2, 3, cfg, 1, 2) // leaves a band behind
	p.SetLmax(p.BlockWeight(0))
	if p.BlockWeight(1) != p.Lmax() || len(idx.List(0)) == 0 || len(idx.List(1)) == 0 {
		t.Fatalf("blocks 0 and 1 weigh %d and %d, boundary lists %v %v", p.BlockWeight(0), p.BlockWeight(1), idx.List(0), idx.List(1))
	}
	lists := [2][]int32{slices.Clone(idx.List(0)), slices.Clone(idx.List(1))}
	band, blocks := slices.Clone(ws.band), slices.Clone(p.Block)
	var out RefinePairOutcome
	allocs := testing.AllocsPerRun(10, func() { out = RefinePairIndexed(ws, idx, p, p.Block, 0, 1, cfg, 3, 4) })
	if out != (RefinePairOutcome{}) || allocs != 0 {
		t.Fatalf("stuck pair returned %+v with %v allocations per call", out, allocs)
	}
	if !slices.Equal(idx.List(0), lists[0]) || !slices.Equal(idx.List(1), lists[1]) || !slices.Equal(ws.band, band) || !slices.Equal(p.Block, blocks) {
		t.Fatal("stuck pair touched its lists, the workspace's band or the partition")
	}
	p.SetLmax(p.Lmax() + 1)
	if out = RefinePairIndexed(ws, idx, p, p.Block, 0, 1, cfg, 3, 4); out.BandSize == 0 {
		t.Fatalf("a pair with room for one node built no band: %+v", out)
	}
}

// FuzzPairSearchMatchesReference checks the searches of a decoded sequence
// of pair refinements, each in its decoded start state.
func FuzzPairSearchMatchesReference(f *testing.F) {
	f.Add([]byte{12, 3, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 1, 7, 1, 2, 2, 9})
	f.Add([]byte("a search stops when neither queue can yield a feasible move, and a stuck pair fills no queue at all"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if g, k, block, steps := fuzzSteps(data); g != nil {
			checkSearchMatchesReference(t, "fuzz", part.FromBlocks(g, k, 1, block), steps)
		}
	})
}
