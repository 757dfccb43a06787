package refine

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/rng"
)

// buildBandReference is the band builder as it stood before the boundary
// index, kept verbatim (but for the view accessor's new home) as the
// differential reference: one scan over all n nodes for the depth-1 seeds,
// then the same BFS.
func buildBandReference(p *part.Partition, ws *Workspace, view []int32, a, b int32, depth int) []int32 {
	g := p.G
	inBand := ws.inBand
	band := ws.band[:0]
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		bv := part.ViewGet(view, v)
		if bv != a && bv != b {
			continue
		}
		other := a
		if bv == a {
			other = b
		}
		for _, u := range g.Adj(v) {
			if part.ViewGet(view, u) == other {
				band = append(band, v)
				inBand[v] = true
				break
			}
		}
	}
	return expandBandReference(p, ws, view, band, depth)
}

// expandBandReference is the BFS both reference band builders share: the
// seeds in band, already marked, grow by depth-1 layers of same-block
// neighbours.
func expandBandReference(p *part.Partition, ws *Workspace, view []int32, band []int32, depth int) []int32 {
	g := p.G
	inBand := ws.inBand
	frontLo, frontHi := 0, len(band)
	for d := 1; d < depth; d++ {
		for fi := frontLo; fi < frontHi; fi++ {
			v := band[fi]
			bv := part.ViewGet(view, v)
			for _, u := range g.Adj(v) {
				if part.ViewGet(view, u) == bv && !inBand[u] {
					inBand[u] = true
					band = append(band, u)
				}
			}
		}
		if len(band) == frontHi {
			break
		}
		frontLo, frontHi = frontHi, len(band)
	}
	ws.band = band
	return band
}

// referenceBand returns a copy of the reference band of pair (a, b) on p.
func referenceBand(p *part.Partition, a, b int32, depth int) []int32 {
	ws := NewWorkspace()
	ws.growGlobal(p.G.NumNodes())
	return slices.Clone(buildBandReference(p, ws, p.Block, a, b, depth))
}

// pairStep is one pair refinement of a differential sequence.
type pairStep struct {
	a, b         int32
	cfg          TwoWayConfig
	seedA, seedB uint64
}

// checkBandsMatchReference applies steps to p through one kept index, its
// rows regrouped every third step as a level's global iterations regroup
// them, and, step by step, to a clone through the one-shot entry point. After every
// call both must have searched exactly the band the reference builder finds
// on the partition as it stood before the call, and both must leave the
// same partition. The exception is a call the index's weight bounds prove
// stuck: it builds no band and leaves the workspace's alone, and the
// reference search over the band it skipped must bear it out.
func checkBandsMatchReference(t *testing.T, p *part.Partition, steps []pairStep) {
	t.Helper()
	oneShot := part.FromBlocks(p.G, p.K, p.Eps, slices.Clone(p.Block))
	idx := part.NewBoundaryIndex(p)
	ws, wsOne := NewWorkspace(), NewWorkspace()
	for i, st := range steps {
		if i%3 == 0 { // a global iteration starts: the kept index regroups its rows
			idx.Regroup(nil)
		}
		want := referenceBand(p, st.a, st.b, st.cfg.BandDepth)
		ref := part.FromBlocks(p.G, p.K, p.Eps, slices.Clone(p.Block))
		wantOut, counts := refinePairReference(NewWorkspace(), part.NewBoundaryIndex(ref), ref, ref.Block, st.a, st.b, st.cfg, st.seedA, st.seedB)
		for _, side := range []struct {
			what   string
			ws     *Workspace
			idx    *part.BoundaryIndex
			p      *part.Partition
			refine func() RefinePairOutcome
		}{
			{"kept index", ws, idx, p, func() RefinePairOutcome {
				return RefinePairIndexed(ws, idx, p, p.Block, st.a, st.b, st.cfg, st.seedA, st.seedB)
			}},
			{"one-shot", wsOne, wsOne.PairIndex(oneShot, oneShot.Block, st.a, st.b), oneShot, func() RefinePairOutcome {
				return RefinePairViewWS(wsOne, oneShot, oneShot.Block, st.a, st.b, st.cfg, st.seedA, st.seedB)
			}},
		} {
			proved, band := stuck(side.idx, side.p, st.a, st.b), slices.Clone(side.ws.band)
			got := side.refine()
			if msg := expectOutcome(proved, got, wantOut, counts); msg != "" {
				t.Fatalf("step %d pair (%d,%d): %s: %s", i, st.a, st.b, side.what, msg)
			}
			if !proved {
				band = want
			}
			if !slices.Equal(side.ws.band, band) {
				t.Fatalf("step %d pair (%d,%d): %s band %v, want %v (proved stuck: %v)", i, st.a, st.b, side.what, side.ws.band, band, proved)
			}
		}
		if !slices.Equal(p.Block, oneShot.Block) || !slices.Equal(p.Block, ref.Block) {
			t.Fatalf("step %d pair (%d,%d): kept index, one-shot and reference partitions diverge", i, st.a, st.b)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBandMatchesReference(t *testing.T) {
	for _, g := range []*graph.Graph{gen.RGG(10, 3), gen.RMAT(9, 8, 3), gen.Grid2D(24, 24)} {
		const k = 6
		r := rng.New(5)
		block := make([]int32, g.NumNodes())
		for v := range block {
			block[v] = int32(v * k / len(block))
			if r.Intn(8) == 0 {
				block[v] = int32(r.Intn(k))
			}
		}
		var steps []pairStep
		for i := 0; i < 60; i++ {
			a := int32(r.Intn(k))
			b := (a + 1 + int32(r.Intn(k-1))) % k
			steps = append(steps, pairStep{a, b,
				TwoWayConfig{Strategy: Strategy(r.Intn(4)), Patience: 0.5, BandDepth: 1 + r.Intn(4)},
				r.Uint64(), r.Uint64()})
		}
		checkBandsMatchReference(t, part.FromBlocks(g, k, 0.05, block), steps)
	}
}

// fuzzSteps decodes a small graph with node weights, a k-way partition of it
// and a sequence of pair refinements, each with the balance situation it
// starts in, from bytes.
func fuzzSteps(data []byte) (g *graph.Graph, k int, block []int32, steps []searchStep) {
	if len(data) < 2 {
		return nil, 0, nil, nil
	}
	n := 2 + int(data[0])%40
	k = 2 + int(data[1])%5
	data = data[2:]
	bld := graph.NewBuilder(n)
	edges := min(len(data)/2, 3*n)
	for i := 0; i < edges; i++ {
		bld.AddEdge(int32(int(data[2*i])%n), int32(int(data[2*i+1])%n), 1+int64(data[2*i])%3)
	}
	data = data[2*edges:]
	block = make([]int32, n)
	for v := range block {
		if v < len(data) {
			block[v] = int32(int(data[v]) % k)
			bld.SetNodeWeight(int32(v), 1+int64(data[v]/8)%4)
		}
	}
	data = data[min(n, len(data)):]
	for ; len(data) >= 4 && len(steps) < 32; data = data[4:] {
		a := int32(int(data[0]) % k)
		b := (a + 1 + int32(int(data[1])%(k-1))) % int32(k)
		steps = append(steps, searchStep{pairStep{a, b,
			TwoWayConfig{Strategy: Strategy(data[2] % 4), Patience: 1, BandDepth: 1 + int(data[2]/4)%3},
			uint64(data[3]), uint64(data[3]) + 1}, startState(data[1] / 64 % 3)})
	}
	return bld.Build(), k, block, steps
}

// FuzzBandMatchesReference checks the bands of a decoded sequence of pair
// refinements under a wide balance bound, which lets the searches move nodes
// both ways.
func FuzzBandMatchesReference(f *testing.F) {
	f.Add([]byte{12, 3, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 1, 7, 1, 2, 2, 9})
	f.Add([]byte("boundary lists replace the all-n band scan; gains are computed once per search"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, k, block, steps := fuzzSteps(data)
		if g == nil {
			return
		}
		pairs := make([]pairStep, len(steps))
		for i, st := range steps {
			pairs[i] = st.pairStep
		}
		checkBandsMatchReference(t, part.FromBlocks(g, k, 1, block), pairs)
	})
}

// TestGainsComputedOnce pins what lets a search walk every band node's
// adjacency a single time, reading only the view: the gains and the pair cut
// it records equal what independent walks over the search's own side table
// find before the first seeded run, between the two runs (run restores the
// state it started from), and what a walk over the a-side for the cut alone
// finds.
func TestGainsComputedOnce(t *testing.T) {
	g := gen.RGG(10, 7)
	const k = 5
	r := rng.New(9)
	for round := 0; round < 20; round++ {
		block := make([]int32, g.NumNodes())
		for v := range block {
			block[v] = int32(r.Intn(k))
		}
		p := part.FromBlocks(g, k, 0.5, block)
		a := int32(r.Intn(k))
		b := (a + 1 + int32(r.Intn(k-1))) % k
		cfg := TwoWayConfig{Strategy: TopGain, Patience: 0.5, BandDepth: 1 + r.Intn(3)}
		ws := NewWorkspace()
		s := newPairSearch(part.NewBoundaryIndex(p), p, ws, p.Block, a, b, cfg)
		s.walkRest()
		walk := func(when string) {
			t.Helper()
			var cut int64
			for li := range s.band {
				gain, wOther := s.gain(int32(li))
				if gain != ws.gain0[li] {
					t.Fatalf("round %d %s: node %d gain %d, recorded %d", round, when, s.band[li], gain, ws.gain0[li])
				}
				if s.side[li] == 0 {
					cut += wOther
				}
			}
			if cut != s.cut {
				t.Fatalf("round %d %s: pair cut %d, recorded %d", round, when, cut, s.cut)
			}
		}
		walk("before the first run")
		ws.rng.Seed(r.Uint64())
		s.run(cfg, &ws.rng, ws.movesA)
		walk("between the runs")
		var direct int64
		for v := int32(0); v < int32(g.NumNodes()); v++ {
			if block[v] != a {
				continue
			}
			for i, u := range g.Adj(v) {
				if block[u] == b {
					direct += g.AdjWeights(v)[i]
				}
			}
		}
		if direct != s.cut {
			t.Fatalf("round %d: cut between %d and %d is %d, recorded %d", round, a, b, direct, s.cut)
		}
		s.release()
	}
}

// TestColorClassRefinesConcurrently refines every colour class of a k-way
// partition with one goroutine per pair against one shared index and
// snapshot view — core.refineLevel's workers at their widest — and expects
// the partition that refining the same pairs one after the other yields.
// Under -race it checks the index's single-owner rule.
func TestColorClassRefinesConcurrently(t *testing.T) {
	g := gen.RGG(12, 2)
	const k = 16
	block := make([]int32, g.NumNodes())
	for v := range block {
		block[v] = int32(v * k / len(block))
	}
	cfg := defaultCfg()
	refineAll := func(p *part.Partition, concurrent bool) {
		idx := part.NewBoundaryIndex(p)
		q := idx.Quotient()
		colors, nc := part.DistributedColoring(k, q, 1)
		view := make([]int32, len(p.Block))
		for _, class := range part.ColorClasses(q, colors, nc) {
			copy(view, p.Block)
			var wg sync.WaitGroup
			for _, e := range class {
				pair := func() {
					defer wg.Done()
					ws := NewWorkspace()
					for li := uint64(0); li < 2; li++ {
						RefinePairIndexed(ws, idx, p, view, e.A, e.B, cfg, uint64(e.A)<<8|li, uint64(e.B)<<8|li)
					}
				}
				wg.Add(1)
				if concurrent {
					go pair()
				} else {
					pair()
				}
			}
			wg.Wait()
		}
	}
	seq := part.FromBlocks(g, k, 0.03, slices.Clone(block))
	refineAll(seq, false)
	conc := part.FromBlocks(g, k, 0.03, slices.Clone(block))
	refineAll(conc, true)
	if !slices.Equal(seq.Block, conc.Block) {
		t.Fatal("concurrent refinement of a colour class differs from sequential")
	}
	if err := conc.Validate(); err != nil {
		t.Fatal(err)
	}
}
