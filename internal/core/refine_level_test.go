package core

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/par"
	"repro/internal/part"
	"repro/internal/refine"
)

// checkIndexLists verifies the boundary-index invariants for the given blocks
// of the partition view describes: every node of block b with a neighbour
// outside b is in list b, no node of b is in list b twice, MinWeight(b) is
// at most the weight of b's lightest node, and every grouped row of a node
// of the given blocks that the index trusts for b holds exactly the node's
// neighbours in b, in row order, with the sum of their edge weights. (Rows
// of other nodes belong to the pairs of their own blocks, which may be
// regrouping them.) It returns how many grouped rows it compared.
func checkIndexLists(g *graph.Graph, idx *part.BoundaryIndex, view []int32, blocks ...int32) (grouped int, err error) {
	var want []int32
	for _, b := range blocks {
		for v := int32(0); v < int32(g.NumNodes()); v++ {
			if !slices.Contains(blocks, part.ViewGet(view, v)) {
				continue
			}
			nbrs, w, _, ok := idx.PairRow(v, b, b)
			if !ok {
				continue
			}
			grouped++
			want, ws := want[:0], g.AdjWeights(v)
			var wantW int64
			for i, u := range g.Adj(v) {
				if part.ViewGet(view, u) == b {
					want, wantW = append(want, u), wantW+ws[i]
				}
			}
			if !slices.Equal(nbrs, want) || w != wantW {
				return grouped, fmt.Errorf("node %d's group of block %d is %v of weight %d, its row has %v of weight %d", v, b, nbrs, w, want, wantW)
			}
		}
		for v := int32(0); v < int32(g.NumNodes()); v++ {
			if part.ViewGet(view, v) == b && g.NodeWeight(v) < idx.MinWeight(b) {
				return grouped, fmt.Errorf("MinWeight(%d) = %d, node %d weighs %d", b, idx.MinWeight(b), v, g.NodeWeight(v))
			}
		}
		listed := make(map[int32]bool)
		for _, v := range idx.List(b) {
			if part.ViewGet(view, v) != b {
				continue
			}
			if listed[v] {
				return grouped, fmt.Errorf("node %d is in list %d twice", v, b)
			}
			listed[v] = true
		}
		for v := int32(0); v < int32(g.NumNodes()); v++ {
			if part.ViewGet(view, v) != b || listed[v] {
				continue
			}
			for _, u := range g.Adj(v) {
				if part.ViewGet(view, u) != b {
					return grouped, fmt.Errorf("boundary node %d of block %d is not in its list", v, b)
				}
			}
		}
	}
	return grouped, nil
}

// TestBoundaryIndexInvariantDuringRun checks the index after every pair
// refinement of full runs (the pair's two lists, weight bounds and grouped
// rows, on the pair's goroutine) and after every global iteration (all of
// them, and the index's quotient against Partition.Quotient). Among the
// pairs must be some that end a call with both blocks too full to take any
// node — the state every stuck pair, which returns before it builds a band,
// starts and ends in — and the grouped rows compared must number more than
// none.
func TestBoundaryIndexInvariantDuringRun(t *testing.T) {
	graphs := map[string]*graph.Graph{"rgg": gen.RGG(11, 1), "rmat": gen.RMAT(9, 8, 1), "grid": gen.Grid2D(40, 40)}
	fullPairs := 0
	var groupedRows atomic.Int64
	for name, g := range graphs {
		for _, k := range []int{2, 4, 16} {
			for _, preset := range []Variant{Fast, Strong} {
				var mu sync.Mutex
				var first error
				pairs, full, iterations := 0, 0, 0
				fail := func(err error) {
					mu.Lock()
					defer mu.Unlock()
					if first == nil {
						first = err
					}
				}
				check := func(idx *part.BoundaryIndex, p *part.Partition, view []int32, a, b int32, _ refine.RefinePairOutcome) {
					if a >= 0 {
						room := p.Lmax() - slices.Min(p.G.NodeWeights())
						mu.Lock()
						pairs++
						if wa, wb := p.BlockWeight(a), p.BlockWeight(b); max(wa, wb) <= p.Lmax() && min(wa, wb) > room {
							full++
						}
						mu.Unlock()
						rows, err := checkIndexLists(p.G, idx, view, a, b)
						groupedRows.Add(int64(rows))
						if err != nil {
							fail(fmt.Errorf("after pair (%d,%d): %w", a, b, err))
						}
						return
					}
					iterations++
					all := make([]int32, k)
					for i := range all {
						all[i] = int32(i)
					}
					rows, err := checkIndexLists(p.G, idx, view, all...)
					groupedRows.Add(int64(rows))
					if err != nil {
						fail(fmt.Errorf("after an iteration: %w", err))
					}
					if got, want := idx.Quotient(), p.Quotient(); !slices.Equal(got, want) {
						fail(fmt.Errorf("after an iteration: index quotient %v, partition quotient %v", got, want))
					}
				}
				cfg := NewConfig(preset, k)
				cfg.Seed = 7
				if _, err := Run(context.Background(), g, cfg, WithRefiner(envRefiner(func(env *Env) { env.indexCheck = check }))); err != nil {
					t.Fatal(err)
				}
				if first != nil {
					t.Fatalf("%s k=%d %v: %v", name, k, preset, first)
				}
				if pairs == 0 || iterations == 0 {
					t.Fatalf("%s k=%d %v: check ran on %d pairs and %d iterations", name, k, preset, pairs, iterations)
				}
				fullPairs += full
			}
		}
	}
	if fullPairs == 0 {
		t.Fatal("no pair ended a call with both blocks full")
	}
	if groupedRows.Load() == 0 {
		t.Fatal("no grouped row was compared")
	}
	t.Logf("%d pairs ended a call with both blocks full; %d grouped rows compared", fullPairs, groupedRows.Load())
}

// TestGroupedRowsHoldUnderACrew runs a power-law graph, whose hubs border
// every block, on a crew of two with the index's invariants checked after
// every pair and every iteration, as TestBoundaryIndexInvariantDuringRun
// does: a pair regrouping a stale row of its own reads the blocks of
// neighbours that the other member's pair is moving, and must still leave a
// row that is exact for its two blocks and no grouped row out of bounds.
func TestGroupedRowsHoldUnderACrew(t *testing.T) {
	g := gen.RMAT(12, 10, 1)
	for seed := uint64(0); seed < 8; seed++ {
		var mu sync.Mutex
		var first error
		check := func(idx *part.BoundaryIndex, p *part.Partition, view []int32, a, b int32, _ refine.RefinePairOutcome) {
			blocks := []int32{a, b}
			if a < 0 {
				blocks = blocks[:0]
				for blk := range p.K {
					blocks = append(blocks, int32(blk))
				}
			}
			if _, err := checkIndexLists(p.G, idx, view, blocks...); err != nil {
				mu.Lock()
				defer mu.Unlock()
				if first == nil {
					first = fmt.Errorf("after pair (%d,%d): %w", a, b, err)
				}
			}
		}
		cfg := NewConfig(Fast, 8)
		cfg.Seed = seed
		crew := envRefiner(func(env *Env) {
			env.crew.Stop()
			env.crew = par.Start(2, par.Spin) // two members even on one processor
			env.indexCheck = check
		})
		if _, err := Run(context.Background(), g, cfg, WithRefiner(crew)); err != nil {
			t.Fatal(err)
		}
		if first != nil {
			t.Fatalf("seed %d: %v", seed, first)
		}
	}
}

// refineLevelBench is one global iteration of pairwise refinement on the
// finest level of a graph, k=16, over the partition a Minimal run leaves:
// index build, quotient, colouring and one FM pass over every block pair.
type refineLevelBench struct {
	g      *graph.Graph
	start  []int32 // the Minimal run's blocks
	blocks []int32 // what a pass refines: start, copied
	cfg    Config
	env    *Env
}

func newRefineLevelBench(tb testing.TB, spec string, workers int) *refineLevelBench {
	g, err := gen.FromSpec(spec)
	if err != nil {
		tb.Fatal(err)
	}
	minimal := NewConfig(Minimal, 16)
	minimal.Seed = 1
	base, err := Run(context.Background(), g, minimal)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := NewConfig(Fast, 16)
	cfg.Seed, cfg.MaxGlobalIter, cfg.Workers = 1, 1, workers
	// The Env lives as long as a run's does: its crew is stopped when the
	// benchmark is over.
	env := &Env{Arena: mem.NewArena(), crew: par.Start(workers, par.Spin)}
	tb.Cleanup(env.crew.Stop)
	return &refineLevelBench{g, base.Blocks, make([]int32, g.NumNodes()), cfg, env}
}

func (l *refineLevelBench) pass(tb testing.TB) {
	copy(l.blocks, l.start)
	p := part.FromBlocks(l.g, l.cfg.K, l.cfg.Eps, l.blocks)
	if _, err := refineLevel(context.Background(), p, &l.cfg, 0, 0, l.env); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkRefineLevel times refineLevelBench's pass on one worker and on a
// crew of two, on a mesh and on a power-law graph. An untimed first pass
// warms the arena and the workspaces and starts the crew, so allocs/op is the
// steady state a V-cycle sees on all but its first level — on one worker,
// which is what `make bench-compare` gates: on a crew the scheduler decides
// which member refines which pair, hence whose workspace still has to grow.
func BenchmarkRefineLevel(b *testing.B) {
	for _, workers := range []int{1, 2} {
		for _, spec := range []string{"rgg:15", "rmat:12"} {
			b.Run(fmt.Sprintf("workers=%d/%s", workers, strings.ReplaceAll(spec, ":", "")), func(b *testing.B) {
				l := newRefineLevelBench(b, spec, workers)
				l.pass(b)
				// A collection that starts inside a pass adds the runtime's
				// own allocations to allocs/op, depending on what ran
				// before; the collections run between the passes instead.
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					runtime.GC()
					b.StartTimer()
					l.pass(b)
				}
			})
		}
	}
}

var scaling = flag.Bool("scaling", false, "run TestRefineScaling, which times refinement on one and two workers (make scaling)")

// TestRefineScaling prints, for refineLevelBench's pass on a mesh and on a
// power-law graph, how much faster a crew of two is than one worker, next to
// the most two workers could make of the same pairs: the one-worker time with
// each global iteration's pair time — the sum of its pairs' measured
// durations — replaced by the longer of the iteration's critical path (every
// pair after the earlier pairs of its two blocks) and half its pair time;
// then the same ratio for the refinement phase of whole runs. Passes
// alternate between the two so that a drifting machine slows both alike;
// times are medians.
func TestRefineScaling(t *testing.T) {
	if !*scaling {
		t.Skip("timing test: run make scaling")
	}
	const passes = 40
	for _, spec := range []string{"rgg:15", "rmat:12"} {
		one, two := newRefineLevelBench(t, spec, 1), newRefineLevelBench(t, spec, 2)
		// The hooks mark, on the single worker's goroutine, when a pair is
		// claimed, when each of its local iterations is done and when the
		// iteration is over; one worker refines the pairs in schedule order.
		type timed struct {
			a, b int32
			d    time.Duration
		}
		var pairs []timed // of the iteration under way
		var last time.Time
		var started bool
		var saved time.Duration // by two workers, over one pass
		finish := make([]time.Duration, one.cfg.K)
		one.env.claimOrder = func([]int) int { last, started = time.Now(), true; return 0 }
		one.env.indexCheck = func(_ *part.BoundaryIndex, _ *part.Partition, _ []int32, a, b int32, _ refine.RefinePairOutcome) {
			now := time.Now()
			switch {
			case a < 0:
				clear(finish)
				var sum, path time.Duration
				for _, q := range pairs {
					f := max(finish[q.a], finish[q.b]) + q.d
					finish[q.a], finish[q.b] = f, f
					sum, path = sum+q.d, max(path, f)
				}
				saved += sum - max(path, sum/2)
				pairs = pairs[:0]
			case started: // the pair's first local iteration
				pairs = append(pairs, timed{a, b, now.Sub(last)})
			default:
				pairs[len(pairs)-1].d += now.Sub(last)
			}
			last, started = now, false
		}
		one.pass(t)
		two.pass(t)
		var t1, t2, bound []time.Duration
		for i := 0; i < passes; i++ {
			saved = 0
			start := time.Now()
			one.pass(t)
			d1 := time.Since(start)
			t1, bound = append(t1, d1), append(bound, d1-saved)
			start = time.Now()
			two.pass(t)
			t2 = append(t2, time.Since(start))
		}
		m1, m2, mb := median(t1), median(t2), median(bound)
		fmt.Printf("%-7s finest level: one worker %6.2f ms  crew of two %6.2f ms  scaling %.2f  dependency bound %.2f (GOMAXPROCS=%d)\n",
			strings.ReplaceAll(spec, ":", ""), ms(m1), ms(m2), float64(m1)/float64(m2), float64(m1)/float64(mb), runtime.GOMAXPROCS(0))
		// The finest level's pairs are the longest of a run; the refinement
		// phase of whole runs, coarse levels and their short pairs included,
		// is what an op pays.
		t1, t2 = t1[:0], t2[:0]
		for seed := uint64(0); seed < passes; seed++ {
			for workers, times := range map[int]*[]time.Duration{1: &t1, 2: &t2} {
				cfg := NewConfig(Fast, 16)
				cfg.Seed, cfg.Workers = seed, workers
				res, err := Run(context.Background(), one.g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				*times = append(*times, res.RefineTime)
			}
		}
		m1, m2 = median(t1), median(t2)
		fmt.Printf("%-7s whole runs' refinement: one worker %6.2f ms  crew of two %6.2f ms  scaling %.2f\n",
			strings.ReplaceAll(spec, ":", ""), ms(m1), ms(m2), float64(m1)/float64(m2))
	}
}

func median(d []time.Duration) time.Duration {
	slices.Sort(d)
	return d[len(d)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// groupedFamilies are FuzzGroupedRowsMatchFullRows's inputs, one per
// generator family, built once.
var groupedFamilies = sync.OnceValue(func() []*graph.Graph {
	var gs []*graph.Graph
	for _, spec := range []string{"rgg:10", "delaunay:10", "grid:32x32", "grid3d:10x10x10", "road:1000", "social:1000", "rmat:10", "fem:1000", "banded:1000"} {
		g, err := gen.FromSpec(spec)
		if err != nil {
			panic(err)
		}
		gs = append(gs, g)
	}
	return gs
})

// pairRecord is one local iteration of one pair, as indexCheck sees it.
type pairRecord struct {
	a, b int32
	out  refine.RefinePairOutcome
}

// refineRecord runs g under cfg, its boundary rows grouped or read in full,
// and returns the run's result, its RefineEvents and every pair's local
// iterations, those of a global iteration in order of the pair — the order
// two workers finish them in is theirs — and in order within a pair.
func refineRecord(t *testing.T, g *graph.Graph, cfg Config, fullRows bool) (Result, []RefineEvent, []pairRecord) {
	t.Helper()
	var mu sync.Mutex
	var events []RefineEvent
	var pairs, iteration []pairRecord
	hook := envRefiner(func(env *Env) {
		env.fullRows = fullRows
		env.indexCheck = func(_ *part.BoundaryIndex, _ *part.Partition, _ []int32, a, b int32, out refine.RefinePairOutcome) {
			mu.Lock()
			defer mu.Unlock()
			if a >= 0 {
				iteration = append(iteration, pairRecord{a, b, out})
				return
			}
			slices.SortStableFunc(iteration, func(x, y pairRecord) int { return cmp.Or(cmp.Compare(x.a, y.a), cmp.Compare(x.b, y.b)) })
			pairs, iteration = append(pairs, iteration...), iteration[:0]
		}
	})
	observe := ObserverFunc(func(ev TraceEvent) {
		if e, ok := ev.(RefineEvent); ok {
			events = append(events, e)
		}
	})
	res, err := Run(context.Background(), g, cfg, WithRefiner(hook), WithObserver(observe))
	if err != nil {
		t.Fatal(err)
	}
	return res, events, pairs
}

// FuzzGroupedRowsMatchFullRows runs a generator family's graph twice — the
// boundary index's rows grouped, and every row read in full — with k of 2,
// 4, 16, 64 or 65 (65 blocks take no groups), any band depth and a crew of
// one or two, and wants the same partition and cut, the same RefineEvents
// and the same outcome of every local iteration of every pair: gain, moves
// and band size.
func FuzzGroupedRowsMatchFullRows(f *testing.F) {
	for i := range 10 {
		f.Add(uint8(i), uint8(i), uint8(i%5+1), uint8(i%2+1), uint64(i))
	}
	f.Fuzz(func(t *testing.T, family, kSel, depth, workers uint8, seed uint64) {
		gs := groupedFamilies()
		g := gs[int(family)%len(gs)]
		cfg := NewConfig(Fast, []int{2, 4, 16, 64, 65}[kSel%5])
		cfg.Seed, cfg.BandDepth, cfg.Workers = seed, 1+int(depth%6), 1+int(workers%2)
		gotRes, gotEvents, gotPairs := refineRecord(t, g, cfg, false)
		wantRes, wantEvents, wantPairs := refineRecord(t, g, cfg, true)
		if !slices.Equal(gotRes.Blocks, wantRes.Blocks) || gotRes.Cut != wantRes.Cut {
			t.Fatalf("grouped rows: cut %d, full rows: cut %d, or the blocks differ", gotRes.Cut, wantRes.Cut)
		}
		if !slices.Equal(gotEvents, wantEvents) {
			t.Fatalf("grouped rows: events %v, full rows: %v", gotEvents, wantEvents)
		}
		if len(gotPairs) == 0 || !slices.Equal(gotPairs, wantPairs) {
			t.Fatalf("grouped rows: %d pair iterations, full rows: %d, or their outcomes differ", len(gotPairs), len(wantPairs))
		}
	})
}
