package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coarsen"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/part"
	"repro/internal/refine"
	"repro/internal/rng"
)

// envRefiner is the default Refiner on an Env the test has prepared first:
// the way a test reaches the unexported hooks of a full run.
type envRefiner func(env *Env)

func (prepare envRefiner) Refine(ctx context.Context, h *coarsen.Hierarchy, initial []int32, cfg *Config, env *Env) (*part.Partition, error) {
	prepare(env)
	return pairwiseRefiner{}.Refine(ctx, h, initial, cfg, env)
}

// within runs f and fails the test with a dump of every goroutine when f has
// not returned in time: a crew member that missed its wake-up is a goroutine
// parked in par's gate.park or yielding in Crew.await in that dump, not a
// flake.
func within(t *testing.T, limit time.Duration, f func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(limit):
		var dump strings.Builder
		pprof.Lookup("goroutine").WriteTo(&dump, 2)
		t.Fatalf("still running after %v; goroutines:\n%s", limit, dump.String())
	}
}

// TestCrewNearEmptyRounds drives the run's crew from refineLevel through
// thousands of pairs most of which are stuck and return at once, in batches
// of one to fifteen — small grids, few blocks, more workers than a batch has
// free pairs, every global iteration run — with and without the spin budget,
// and expects the partition a single worker computes, and no helper left
// behind.
// Members beyond GOMAXPROCS are started on purpose (par.Start does not cap),
// so that they take turns even on one processor.
func TestCrewNearEmptyRounds(t *testing.T) {
	g := gen.Grid2D(16, 16)
	var claims atomic.Int64
	before := runtime.NumGoroutine()
	for _, k := range []int{2, 3, 4, 6} {
		for seed := uint64(0); seed < 3; seed++ {
			cfg := NewConfig(Fast, k)
			cfg.Seed = seed
			cfg.MaxGlobalIter, cfg.StopOnNoChange = 15, 15
			cfg.Workers = 1
			want, err := Run(context.Background(), g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 8} {
				for _, noSpin := range []bool{false, true} {
					cfg.Workers = workers
					prepare := envRefiner(func(env *Env) {
						spin := par.Spin
						if noSpin {
							spin = 0 // members park as soon as they have nothing to claim
						}
						env.crew.Stop()
						env.crew = par.Start(workers, spin)
						env.claimOrder = func([]int) int { // the lowest, as without the hook
							claims.Add(1)
							return 0
						}
					})
					within(t, time.Minute, func() error {
						got, err := Run(context.Background(), g, cfg, WithRefiner(prepare))
						if err == nil && !slices.Equal(got.Blocks, want.Blocks) {
							err = fmt.Errorf("k=%d seed %d Workers=%d noSpin=%v: partition differs from Workers=1", k, seed, workers, noSpin)
						}
						return err
					})
				}
			}
		}
	}
	t.Logf("%d pairs claimed", claims.Load())
	if claims.Load() < 5000 {
		t.Fatalf("only %d pairs claimed", claims.Load())
	}
	// Run stops the crew the hook put in place of its own.
	if after := settled(before); after > before {
		t.Fatalf("%d goroutines before, %d after", before, after)
	}
}

// TestCrewNeverOutlivesItsRun counts goroutines around every way a run can
// end — Run and RefineExistingCtx returning a partition, a run cancelled in
// the middle of refinement, a Refiner that fails after it has refined — and
// expects the count it started with: the helpers of the run's crew have
// exited, not gone idle.
func TestCrewNeverOutlivesItsRun(t *testing.T) {
	g := gen.RGG(11, 5)
	cfg := NewConfig(Fast, 8)
	cfg.Seed = 3
	cfg.Workers = 4
	started := false
	startsCrew := envRefiner(func(env *Env) {
		env.indexCheck = func(_ *part.BoundaryIndex, _ *part.Partition, _ []int32, a, _ int32, _ refine.RefinePairOutcome) {
			if a < 0 { // between iterations, on the run's own goroutine
				started = started || env.crew != nil
			}
		}
	})
	failed := errors.New("refiner failed")
	cases := map[string]func() error{
		"Run": func() error {
			_, err := Run(context.Background(), g, cfg, WithRefiner(startsCrew))
			return err
		},
		"RefineExistingCtx": func() error {
			res, err := Run(context.Background(), g, cfg)
			if err != nil {
				return err
			}
			_, _, err = RefineExistingCtx(context.Background(), g, cfg, res.Blocks)
			started = true // it takes no Refiner to look through; it starts a crew like Run
			return err
		},
		"cancelled": func() error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			seen := 0
			_, err := Run(ctx, g, cfg, WithRefiner(startsCrew), WithObserver(ObserverFunc(func(ev TraceEvent) {
				if _, ok := ev.(RefineEvent); ok {
					if seen++; seen == 2 {
						cancel()
					}
				}
			})))
			if !errors.Is(err, context.Canceled) {
				return fmt.Errorf("got %v, want context.Canceled", err)
			}
			return nil
		},
		"failing Refiner": func() error {
			_, err := Run(context.Background(), g, cfg, WithRefiner(failingRefiner{startsCrew, failed}))
			if !errors.Is(err, failed) {
				return fmt.Errorf("got %v, want the Refiner's error", err)
			}
			return nil
		},
	}
	for name, run := range cases {
		started = false
		before := runtime.NumGoroutine()
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !started {
			t.Fatalf("%s: the run refined without a crew", name)
		}
		// Only more goroutines than before is a crew outliving its run: fewer
		// is one an earlier test left behind, exiting during this case.
		if after := settled(before); after > before {
			t.Errorf("%s: %d goroutines before, %d after", name, before, after)
		}
	}
}

// TestHugeWorkersStartsNoMoreHelpersThanProcessors runs with Workers 1<<20,
// which the service's workers field lets a job ask for, and expects a crew of
// at most GOMAXPROCS members — no more than GOMAXPROCS-1 goroutines beyond
// the run's own at any level or refinement iteration — and the bytes of a
// single worker's run.
func TestHugeWorkersStartsNoMoreHelpersThanProcessors(t *testing.T) {
	g := gen.RGG(13, 4)
	cfg := NewConfig(Fast, 16)
	cfg.Seed = 5
	cfg.Workers = 1
	want, err := Run(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1 << 20
	procs := runtime.GOMAXPROCS(0)
	members := 0
	sized := envRefiner(func(env *Env) { members = env.crew.Members() })
	before := runtime.NumGoroutine()
	most := 0
	sample := ObserverFunc(func(ev TraceEvent) {
		switch ev.(type) {
		case LevelEvent, RefineEvent:
			most = max(most, runtime.NumGoroutine()-before)
		}
	})
	got, err := Run(context.Background(), g, cfg, WithRefiner(sized), WithObserver(sample))
	if err != nil {
		t.Fatal(err)
	}
	if members < 1 || members > procs {
		t.Fatalf("Workers=%d: a crew of %d members on %d processors", cfg.Workers, members, procs)
	}
	if most > procs-1 {
		t.Fatalf("Workers=%d: %d goroutines beyond the run's own on %d processors", cfg.Workers, most, procs)
	}
	if !slices.Equal(got.Blocks, want.Blocks) {
		t.Fatalf("Workers=%d: partition differs from Workers=1", cfg.Workers)
	}
}

// settled returns the goroutine count, giving goroutines that have been
// waited for a moment to finish dying: WaitGroup.Wait returns on a helper's
// Done, an instant before the helper itself is gone.
func settled(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// failingRefiner refines like the inner Refiner and then reports err.
type failingRefiner struct {
	inner Refiner
	err   error
}

func (f failingRefiner) Refine(ctx context.Context, h *coarsen.Hierarchy, initial []int32, cfg *Config, env *Env) (*part.Partition, error) {
	if _, err := f.inner.Refine(ctx, h, initial, cfg, env); err != nil {
		return nil, err
	}
	return nil, f.err
}

// TestClaimOrderLeavesNoTrace refines one level with the free pairs of every
// batch claimed lowest first, highest first and in a seeded shuffle, by one
// worker and by a crew whose members stall at random inside their pairs, and
// expects the same blocks, block weights and boundary lists each time, and
// the cut the level reports to be the partition's: which
// member refines a pair, and when — in colour order or not, beside whatever
// other pairs — decides nothing, as long as a pair waits for the earlier
// pairs of its two blocks. That is what lets a crew claim pairs as they come
// free.
func TestClaimOrderLeavesNoTrace(t *testing.T) {
	graphs := map[string]*graph.Graph{"rgg": gen.RGG(11, 9), "rmat": gen.RMAT(9, 8, 9)}
	const k = 16
	for name, g := range graphs {
		shuffle := rng.New(42) // drawn from under the batch's lock
		orders := map[string]func(free []int) int{
			"schedule": nil,
			"reversed": func(free []int) int { return len(free) - 1 },
			"shuffled": func(free []int) int { return shuffle.Intn(len(free)) },
		}
		var wantBlocks []int32
		var wantWeights []int64
		var wantLists [][]int32
		for _, workers := range []int{1, 4} {
			for _, order := range []string{"schedule", "reversed", "shuffled"} {
				cfg := NewConfig(Fast, k)
				cfg.Seed = 11
				cfg.Workers = workers
				blocks := make([]int32, g.NumNodes())
				for v := range blocks {
					blocks[v] = int32(v * k / len(blocks))
				}
				p := part.FromBlocks(g, k, cfg.Eps, blocks)
				var calls atomic.Uint64
				stall := func(_ *part.BoundaryIndex, _ *part.Partition, _ []int32, a, _ int32, _ refine.RefinePairOutcome) {
					if a < 0 {
						return
					}
					switch h := splitSeed(uint64(workers), calls.Add(1)); h % 8 {
					case 0:
						time.Sleep(time.Duration(h>>8%200) * time.Microsecond)
					case 1, 2:
						for range h >> 8 % 16 {
							runtime.Gosched()
						}
					}
				}
				env := &Env{claimOrder: orders[order], indexCheck: stall, crew: par.Start(workers, par.Spin)}
				cut, err := refineLevel(context.Background(), p, &cfg, 0, 0, env)
				if err != nil {
					t.Fatal(err)
				}
				if scanned := p.Cut(); cut != scanned {
					t.Fatalf("the level reports cut %d, the partition cuts %d", cut, scanned)
				}
				env.crew.Stop()
				weights := make([]int64, k)
				lists := make([][]int32, k)
				for b := range weights {
					weights[b] = p.BlockWeight(int32(b))
					lists[b] = slices.Clone(env.boundary.List(int32(b)))
				}
				if wantBlocks == nil {
					wantBlocks, wantWeights, wantLists = blocks, weights, lists
					continue
				}
				if !slices.Equal(blocks, wantBlocks) || !slices.Equal(weights, wantWeights) {
					t.Fatalf("%s Workers=%d %s: partition differs from the in-order single-worker run", name, workers, order)
				}
				for b := range lists {
					if !slices.Equal(lists[b], wantLists[b]) {
						t.Fatalf("%s Workers=%d %s: boundary list %d differs from the in-order single-worker run", name, workers, order, b)
					}
				}
			}
		}
		wantBlocks = nil
	}
}
