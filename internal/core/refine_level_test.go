package core

import (
	"context"
	"flag"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/par"
	"repro/internal/part"
)

// checkIndexLists verifies the boundary-index invariants for the given blocks
// of the partition view describes: every node of block b with a neighbour
// outside b is in list b, no node of b is in list b twice, and MinWeight(b)
// is at most the weight of b's lightest node.
func checkIndexLists(g *graph.Graph, idx *part.BoundaryIndex, view []int32, blocks ...int32) error {
	for _, b := range blocks {
		for v := int32(0); v < int32(g.NumNodes()); v++ {
			if part.ViewGet(view, v) == b && g.NodeWeight(v) < idx.MinWeight(b) {
				return fmt.Errorf("MinWeight(%d) = %d, node %d weighs %d", b, idx.MinWeight(b), v, g.NodeWeight(v))
			}
		}
		listed := make(map[int32]bool)
		for _, v := range idx.List(b) {
			if part.ViewGet(view, v) != b {
				continue
			}
			if listed[v] {
				return fmt.Errorf("node %d is in list %d twice", v, b)
			}
			listed[v] = true
		}
		for v := int32(0); v < int32(g.NumNodes()); v++ {
			if part.ViewGet(view, v) != b || listed[v] {
				continue
			}
			for _, u := range g.Adj(v) {
				if part.ViewGet(view, u) != b {
					return fmt.Errorf("boundary node %d of block %d is not in its list", v, b)
				}
			}
		}
	}
	return nil
}

// TestBoundaryIndexInvariantDuringRun checks the index after every pair
// refinement of full runs (the pair's two lists and weight bounds, on the
// pair's goroutine) and after every global iteration (all lists and bounds,
// and the index's quotient against Partition.Quotient). Among the pairs must
// be some that end a call with both blocks too full to take any node — the
// state every stuck pair, which returns before it builds a band, starts and
// ends in.
func TestBoundaryIndexInvariantDuringRun(t *testing.T) {
	graphs := map[string]*graph.Graph{"rgg": gen.RGG(11, 1), "rmat": gen.RMAT(9, 8, 1), "grid": gen.Grid2D(40, 40)}
	fullPairs := 0
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
				check := func(idx *part.BoundaryIndex, p *part.Partition, view []int32, a, b int32) {
					if a >= 0 {
						room := p.Lmax() - slices.Min(p.G.NodeWeights())
						mu.Lock()
						pairs++
						if wa, wb := p.BlockWeight(a), p.BlockWeight(b); max(wa, wb) <= p.Lmax() && min(wa, wb) > room {
							full++
						}
						mu.Unlock()
						if err := checkIndexLists(p.G, idx, view, a, b); err != nil {
							fail(fmt.Errorf("after pair (%d,%d): %w", a, b, err))
						}
						return
					}
					iterations++
					all := make([]int32, k)
					for i := range all {
						all[i] = int32(i)
					}
					if err := checkIndexLists(p.G, idx, view, all...); err != nil {
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
	t.Logf("%d pairs ended a call with both blocks full", fullPairs)
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
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
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
		one.env.indexCheck = func(_ *part.BoundaryIndex, _ *part.Partition, _ []int32, a, b int32) {
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
