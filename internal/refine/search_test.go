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
	discards int // infeasible pops of the reference runs
	moves    int // moves applied
	relieved int // moves applied to pairs starting in the overloaded state
}

func (c *searchCoverage) add(o searchCoverage) {
	c.stuck += o.stuck
	c.discards += o.discards
	c.moves += o.moves
	c.relieved += o.relieved
}

// checkSearchMatchesReference applies steps to p through the kernel, with a
// kept index and with the one-shot index, and to clones of p through the
// reference search. After every call the outcomes, the applied move
// prefixes, the partitions and the two index lists of the pair — which a
// stuck pair must leave as the draining search leaves them — must be equal.
func checkSearchMatchesReference(t *testing.T, label string, p *part.Partition, steps []searchStep) searchCoverage {
	t.Helper()
	kept, keptRef := p, part.FromBlocks(p.G, p.K, p.Eps, slices.Clone(p.Block))
	one, oneRef := part.FromBlocks(p.G, p.K, p.Eps, slices.Clone(p.Block)), part.FromBlocks(p.G, p.K, p.Eps, slices.Clone(p.Block))
	idx, idxRef := part.NewBoundaryIndex(kept), part.NewBoundaryIndex(keptRef)
	ws, wsRef, wsOne, wsOneRef := NewWorkspace(), NewWorkspace(), NewWorkspace(), NewWorkspace()
	var cov searchCoverage
	for i, st := range steps {
		a, b := st.a, st.b
		lmax := st.state.lmax(kept.BlockWeight(a), kept.BlockWeight(b))
		for _, q := range []*part.Partition{kept, keptRef, one, oneRef} {
			q.SetLmax(lmax)
		}
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("%s step %d pair (%d,%d) %v depth %d state %d: %s", label, i, a, b, st.cfg.Strategy, st.cfg.BandDepth, st.state, fmt.Sprintf(format, args...))
		}
		sameLists := func(what string, got, want *part.BoundaryIndex) {
			t.Helper()
			for _, blk := range []int32{a, b} {
				if !slices.Equal(got.List(blk), want.List(blk)) {
					fail("%s index list %d is %v, reference %v", what, blk, got.List(blk), want.List(blk))
				}
			}
		}

		want, counts := refinePairReference(wsRef, idxRef, keptRef, keptRef.Block, a, b, st.cfg, st.seedA, st.seedB)
		got := RefinePairIndexed(ws, idx, kept, kept.Block, a, b, st.cfg, st.seedA, st.seedB)
		if got != want {
			fail("outcome %+v, reference %+v", got, want)
		}
		if !slices.Equal(ws.applied, wsRef.applied) {
			fail("applied moves %v, reference %v", ws.applied, wsRef.applied)
		}
		if !slices.Equal(kept.Block, keptRef.Block) {
			fail("partitions diverge")
		}
		sameLists("kept", idx, idxRef)

		wantOne, _ := refinePairReference(wsOneRef, wsOneRef.PairIndex(oneRef, oneRef.Block, a, b), oneRef, oneRef.Block, a, b, st.cfg, st.seedA, st.seedB)
		gotOne := RefinePairViewWS(wsOne, one, one.Block, a, b, st.cfg, st.seedA, st.seedB)
		if gotOne != got || wantOne != want || !slices.Equal(one.Block, kept.Block) {
			fail("one-shot outcome %+v (reference %+v), kept index %+v", gotOne, wantOne, got)
		}
		sameLists("one-shot", &wsOne.oneShot, &wsOneRef.oneShot)

		if err := kept.Validate(); err != nil {
			t.Fatal(err)
		}
		if counts.pushes > 0 && counts.moves == 0 && counts.discards == counts.pushes {
			cov.stuck++
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
	if c := total[full]; c.stuck == 0 || c.moves == 0 || c.discards == 0 {
		t.Errorf("both-full starts: %+v", c)
	}
}

// TestBlockedMatchesBruteForce checks the stuck test against what it stands
// for: over a table of block weights and bounds, asking the lightest node
// answers for every node of a side (and infeasible is the rule run used to
// spell out); on real bands, blocked agrees with trying every queued node.
func TestBlockedMatchesBruteForce(t *testing.T) {
	weights := [][]int64{{1}, {1, 1, 3}, {2, 5}, {3}, {4, 2, 7}, {0, 2}}
	for lmax := int64(0); lmax <= 12; lmax++ {
		for from := int64(0); from <= 16; from++ {
			for to := int64(0); to <= 16; to++ {
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
