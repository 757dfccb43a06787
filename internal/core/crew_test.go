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
	"repro/internal/part"
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
// parked in gate.park or yielding in crew.await in that dump, not a flake.
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

// TestCrewHandshake hands a crew thousands of batches of tasks that do
// nothing but yield the processor, so that members spend the test
// publishing, claiming, waiting and being woken, and tasks change hands even
// on one processor: with the spin budget of a run, and with none, where every
// wait parks — the path a loaded machine takes. Every task must run exactly
// once, no batch may return before its last task has, and helpers must have
// taken their share. A lost wake-up hangs, and within turns that into a dump.
func TestCrewHandshake(t *testing.T) {
	for _, spin := range []time.Duration{crewSpin, 0} {
		for _, members := range []int{2, 3, 8} {
			within(t, time.Minute, func() error {
				c := startCrew(members, spin)
				defer c.stop()
				ran := make([]atomic.Int32, 16)
				r := rng.New(uint64(members))
				tasks, byHelpers := 0, 0
				for batch := 0; batch < 20000; batch++ {
					n := 2 + r.Intn(len(ran)-1)
					byMember := make([]int, members)
					c.run(n, func(member, i int) {
						runtime.Gosched()
						ran[i].Add(1)
						byMember[member]++ // one writer per member
					})
					total := 0
					for _, m := range byMember {
						total += m
					}
					tasks, byHelpers = tasks+n, byHelpers+total-byMember[0]
					if total != n {
						return fmt.Errorf("spin %v, %d members, batch %d: run returned after %d of %d tasks", spin, members, batch, total, n)
					}
					for i := range ran {
						want := int32(0)
						if i < n {
							want = 1
						}
						if got := ran[i].Swap(0); got != want {
							return fmt.Errorf("spin %v, %d members, batch %d of %d tasks: task %d ran %d times", spin, members, batch, n, i, got)
						}
					}
				}
				t.Logf("spin %v, %d members: helpers ran %d of %d tasks", spin, members, byHelpers, tasks)
				if byHelpers < tasks/100 {
					return fmt.Errorf("spin %v, %d members: helpers ran %d of %d tasks", spin, members, byHelpers, tasks)
				}
				return nil
			})
		}
	}
}

// TestCrewNearEmptyRounds drives the crew from refineLevel through thousands
// of rounds of one or two pairs most of which are stuck and return at once —
// small grids, few blocks, more workers than a class has pairs, every global
// iteration run — with and without the spin budget, and expects the
// partition a single worker computes.
func TestCrewNearEmptyRounds(t *testing.T) {
	g := gen.Grid2D(16, 16)
	rounds := 0
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
						env.noSpin = noSpin
						env.indexCheck = func(_ *part.BoundaryIndex, _ *part.Partition, _ []int32, a, _ int32) {
							if a < 0 {
								rounds++
							}
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
	t.Logf("%d rounds", rounds)
	if rounds < 5000 {
		t.Fatalf("only %d rounds ran", rounds)
	}
}

// TestCrewNeverOutlivesItsRun counts goroutines around every way a run can
// end — Run and RefineExistingCtx returning a partition, a run cancelled in
// the middle of refinement, a Refiner that fails after it has refined — and
// expects the count it started with: the helpers have exited, not gone idle.
func TestCrewNeverOutlivesItsRun(t *testing.T) {
	g := gen.RGG(11, 5)
	cfg := NewConfig(Fast, 8)
	cfg.Seed = 3
	cfg.Workers = 4
	started := false
	startsCrew := envRefiner(func(env *Env) {
		env.indexCheck = func(_ *part.BoundaryIndex, _ *part.Partition, _ []int32, a, _ int32) {
			if a < 0 { // between rounds, on the run's own goroutine
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
			started = true // it takes no Refiner to look through; k=8 on 4 workers starts one
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
			t.Fatalf("%s: the run never started a crew", name)
		}
		// Only more goroutines than before is a crew outliving its run: fewer
		// is one an earlier test left behind, exiting during this case.
		if after := settled(before); after > before {
			t.Errorf("%s: %d goroutines before, %d after", name, before, after)
		}
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

// TestClaimOrderLeavesNoTrace refines one level with every class claimed in
// schedule order, reversed, and in a seeded shuffle, by one worker and by a
// crew, and expects the same blocks, block weights and boundary lists each
// time: which member refines a pair, and when within its round, decides
// nothing. That is what lets a crew claim pairs in whatever order they come.
func TestClaimOrderLeavesNoTrace(t *testing.T) {
	graphs := map[string]*graph.Graph{"rgg": gen.RGG(11, 9), "rmat": gen.RMAT(9, 8, 9)}
	const k = 16
	for name, g := range graphs {
		shuffle := rng.New(42)
		orders := map[string]func(class []part.QEdge){
			"schedule": nil,
			"reversed": slices.Reverse[[]part.QEdge],
			"shuffled": func(class []part.QEdge) {
				for i := len(class) - 1; i > 0; i-- {
					j := shuffle.Intn(i + 1)
					class[i], class[j] = class[j], class[i]
				}
			},
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
				env := &Env{claimOrder: orders[order]}
				if err := refineLevel(context.Background(), p, &cfg, 0, 0, env); err != nil {
					t.Fatal(err)
				}
				env.stopCrew()
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
