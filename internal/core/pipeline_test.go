package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/part"
)

// TestRunInvalidConfig checks the error contract: bad input surfaces as
// ErrInvalidConfig-wrapped errors, never as a panic.
func TestRunInvalidConfig(t *testing.T) {
	g := gen.Grid2D(8, 8)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"k=0", func(c *Config) { c.K = 0 }},
		{"negative eps", func(c *Config) { c.Eps = -0.5 }},
		{"zero alpha", func(c *Config) { c.StopAlpha = 0 }},
		{"zero repeats", func(c *Config) { c.InitRepeats = 0 }},
	}
	for _, tc := range cases {
		cfg := NewConfig(Fast, 4)
		tc.mut(&cfg)
		_, err := Run(context.Background(), g, cfg)
		if err == nil {
			t.Fatalf("%s: expected an error", tc.name)
		}
		if !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: error %v does not wrap ErrInvalidConfig", tc.name, err)
		}
	}
	if _, err := Run(context.Background(), nil, NewConfig(Fast, 4)); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("nil graph: got %v", err)
	}
	// More blocks than nodes: refused before anything is sized by K — the
	// colour sets of 100 000 blocks once asked for 2.5 GB.
	for _, k := range []int{65, 100000} {
		if _, err := Run(context.Background(), g, NewConfig(Fast, k)); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("k=%d on %d nodes: got %v", k, g.NumNodes(), err)
		}
	}
	if _, err := Run(context.Background(), g, NewConfig(Fast, g.NumNodes())); err != nil {
		t.Errorf("k = n = %d: %v", g.NumNodes(), err)
	}
}

// TestStopRule pins the contraction threshold where each of its terms binds:
// n/(α·k²), 20 per PE, and 20 per block when there are fewer PEs than
// blocks. The rgg:15 (n = 2^15) rows at k = 8 stop at 160 nodes at any PE
// count up to k; a floor keyed to PEs alone left five nodes per block at
// pes 2.
func TestStopRule(t *testing.T) {
	cases := []struct {
		n, k, pes int
		want      int
	}{
		{1 << 15, 8, 2, 160},
		{1 << 15, 8, 8, 160},
		{1 << 15, 8, 0, 160},
		{1 << 15, 8, 16, 320},
		{1 << 20, 2, 0, 4369},
		{1000, 64, 1, 1280},
		{0, 1, 1, 20},
	}
	for _, tc := range cases {
		cfg := NewConfig(Fast, tc.k)
		cfg.PEs = tc.pes
		if got := StopRule(tc.n, &cfg); got != tc.want {
			t.Errorf("StopRule(n=%d, k=%d, pes=%d) = %d, want %d", tc.n, tc.k, tc.pes, got, tc.want)
		}
	}
}

// TestRunCancelDuringCoarsening cancels the context from an observer as soon
// as the first contraction level lands and expects Run to abort promptly —
// before initial partitioning — with ctx.Err().
func TestRunCancelDuringCoarsening(t *testing.T) {
	g := gen.RGG(13, 2) // large enough for several contraction levels
	cfg := NewConfig(Fast, 8)
	cfg.Seed = 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var events []TraceEvent
	obs := ObserverFunc(func(ev TraceEvent) {
		events = append(events, ev)
		if lv, ok := ev.(LevelEvent); ok && lv.Level == 1 {
			cancel()
		}
	})
	_, err := Run(ctx, g, cfg, WithObserver(obs))
	if err == nil {
		t.Fatal("expected a cancellation error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	for _, ev := range events {
		switch ev.(type) {
		case InitEvent, RefineEvent:
			t.Fatalf("pipeline kept going after cancellation: saw %T", ev)
		}
	}
}

// TestRunObserverOrder verifies the documented event order: level events
// with increasing level numbers, the coarsen phase, the init event and
// phase, refine events by non-decreasing level with increasing iterations,
// the refine phase, and the total phase last. All attached observers see
// every event.
func TestRunObserverOrder(t *testing.T) {
	g := gen.DelaunayX(11, 3)
	cfg := NewConfig(Fast, 8)
	cfg.Seed = 21
	var events []TraceEvent
	var count int
	_, err := Run(context.Background(), g, cfg,
		WithObserver(ObserverFunc(func(ev TraceEvent) { events = append(events, ev) })),
		WithObserver(ObserverFunc(func(TraceEvent) { count++ })),
	)
	if err != nil {
		t.Fatal(err)
	}
	if count != len(events) {
		t.Fatalf("second observer saw %d events, first %d", count, len(events))
	}
	const (
		stageCoarsen = iota
		stageInit
		stageRefine
		stageDone
	)
	stage := stageCoarsen
	lastLevel, levels := 0, 0
	lastRefineLevel, lastIter := -1, -1
	for i, ev := range events {
		switch e := ev.(type) {
		case LevelEvent:
			if stage != stageCoarsen {
				t.Fatalf("event %d: LevelEvent after coarsen phase closed", i)
			}
			if e.Level != lastLevel+1 {
				t.Fatalf("event %d: level %d after level %d", i, e.Level, lastLevel)
			}
			lastLevel = e.Level
			levels++
		case InitEvent:
			if stage != stageInit {
				t.Fatalf("event %d: InitEvent in stage %d", i, stage)
			}
		case RefineEvent:
			if stage != stageRefine {
				t.Fatalf("event %d: RefineEvent in stage %d", i, stage)
			}
			if e.Level < lastRefineLevel {
				t.Fatalf("event %d: refine level %d after %d", i, e.Level, lastRefineLevel)
			}
			if e.Level == lastRefineLevel && e.Iteration != lastIter+1 {
				t.Fatalf("event %d: iteration %d after %d", i, e.Iteration, lastIter)
			}
			lastRefineLevel, lastIter = e.Level, e.Iteration
		case RebalanceEvent:
			if stage != stageRefine || e.Level != levels {
				t.Fatalf("event %d: rebalance of level %d in stage %d", i, e.Level, stage)
			}
		case PhaseEvent:
			switch {
			case e.Phase == PhaseCoarsen && stage == stageCoarsen:
				stage = stageInit
			case e.Phase == PhaseInit && stage == stageInit:
				stage = stageRefine
			case e.Phase == PhaseRefine && stage == stageRefine:
				stage = stageDone
			case e.Phase == PhaseTotal && stage == stageDone:
				if i != len(events)-1 {
					t.Fatalf("event %d: PhaseTotal is not last", i)
				}
			default:
				t.Fatalf("event %d: phase %v out of order (stage %d)", i, e.Phase, stage)
			}
		}
	}
	if stage != stageDone {
		t.Fatalf("incomplete event stream: finished in stage %d", stage)
	}
	if levels == 0 {
		t.Fatal("no LevelEvents observed")
	}
	if lastRefineLevel != levels {
		t.Fatalf("refinement reached level %d, hierarchy has %d", lastRefineLevel, levels)
	}
}

// TestFewerPEsThanBlocksNeedNoRebalance runs `kappa -gen rgg:15 -k 8 -pes 2
// -seed 1`. Before StopRule's floor counted blocks, this run coarsened to
// five nodes per block, refined to an infeasible partition and paid a final
// rebalance that took its cut from 1 574 to 29 655; now refinement alone
// keeps it feasible. (The event's fields are checked where a rebalance is
// certain: TestRefineExistingRepairsImbalance.)
func TestFewerPEsThanBlocksNeedNoRebalance(t *testing.T) {
	g, err := gen.FromSpec("rgg:15")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ConfigFromNames("fast", 8, 0.03, 1, 2, 0, "auto", "")
	if err != nil {
		t.Fatal(err)
	}
	var events []RebalanceEvent
	res, err := Run(context.Background(), g, cfg, WithObserver(ObserverFunc(func(ev TraceEvent) {
		if e, ok := ev.(RebalanceEvent); ok {
			events = append(events, e)
		}
	})))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatalf("rebalance events %+v, want none", events)
	}
	if p := part.FromBlocks(g, cfg.K, cfg.Eps, res.Blocks); !p.Feasible() || res.Cut != 937 {
		t.Fatalf("cut %d balance %.4f, want cut 937 within 1+%.2f", res.Cut, p.Imbalance(), cfg.Eps)
	}
}

// TestRebalancedRunReportsItsCut runs `kappa -gen rgg:13 -k 8 -seed 3`,
// whose refined partition is infeasible: the run's cut is the one the final
// rebalance scanned after its moves, and it must be the partition's cut.
func TestRebalancedRunReportsItsCut(t *testing.T) {
	g, err := gen.FromSpec("rgg:13")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ConfigFromNames("fast", 8, 0.03, 3, 0, 0, "auto", "")
	if err != nil {
		t.Fatal(err)
	}
	var events []RebalanceEvent
	res, err := Run(context.Background(), g, cfg, WithObserver(ObserverFunc(func(ev TraceEvent) {
		if e, ok := ev.(RebalanceEvent); ok {
			events = append(events, e)
		}
	})))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("rebalance events %+v, want one", events)
	}
	if cut := part.FromBlocks(g, cfg.K, cfg.Eps, res.Blocks).Cut(); res.Cut != cut || events[0].CutAfter != cut {
		t.Fatalf("run reports cut %d and the rebalance %d, the partition cuts %d", res.Cut, events[0].CutAfter, cut)
	}
}

// TestRefineExistingCtxCancelled checks the ctx-aware refinement wrapper.
func TestRefineExistingCtxCancelled(t *testing.T) {
	g := gen.Grid2D(24, 24)
	cfg := NewConfig(Fast, 4)
	blocks := make([]int32, g.NumNodes())
	for v := range blocks {
		blocks[v] = int32(v % 4)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := RefineExistingCtx(ctx, g, cfg, blocks); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if _, _, err := RefineExistingCtx(context.Background(), g, cfg, blocks[:10]); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("short blocks: got %v, want ErrInvalidConfig", err)
	}
	for _, bad := range []int32{4, -1} {
		blocks[7] = bad
		if _, _, err := RefineExistingCtx(context.Background(), g, cfg, blocks); !errors.Is(err, ErrInvalidConfig) {
			t.Fatalf("block id %d: got %v, want ErrInvalidConfig", bad, err)
		}
	}
}

// TestTraceAccountsForTheCut holds a run's trace to its cut: the initial
// partition's cut, less the gain of every RefineEvent, plus what every
// RebalanceEvent moved it by (cut_after − cut_before), is the run's cut and
// the partition's, and each RefineEvent's Cut is that sum up to the event.
// It covers every generator family under the three presets and both
// coarsening modes, and `kappa -gen rgg:13 -k 8 -seed 3`, which rebalances.
func TestTraceAccountsForTheCut(t *testing.T) {
	type run struct {
		name string
		g    *graph.Graph
		cfg  Config
	}
	var runs []run
	for _, spec := range []string{"rgg:10", "delaunay:10", "grid:32x32", "grid3d:10x10x10", "road:1000", "social:1000", "rmat:10", "fem:1000", "banded:1000"} {
		g, err := gen.FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, preset := range []Variant{Minimal, Fast, Strong} {
			for _, mode := range []CoarsenMode{CoarsenShared, CoarsenDistributed} {
				cfg := NewConfig(preset, 8)
				cfg.Seed, cfg.Coarsen = 5, mode
				runs = append(runs, run{fmt.Sprintf("%s %v %v", spec, preset, mode), g, cfg})
			}
		}
	}
	g, err := gen.FromSpec("rgg:13")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ConfigFromNames("fast", 8, 0.03, 3, 0, 0, "auto", "")
	if err != nil {
		t.Fatal(err)
	}
	runs = append(runs, run{"rgg:13 seed 3", g, cfg})
	rebalances := 0
	for _, r := range runs {
		var cut int64
		var trace error
		observe := ObserverFunc(func(ev TraceEvent) {
			switch e := ev.(type) {
			case InitEvent:
				cut = e.Cut
			case RefineEvent:
				if cut -= e.Gain; e.Cut != cut && trace == nil {
					trace = fmt.Errorf("%v reports cut %d, the trace so far accounts for %d", e, e.Cut, cut)
				}
			case RebalanceEvent:
				if e.CutBefore != cut && trace == nil {
					trace = fmt.Errorf("%v starts from cut %d, the trace so far accounts for %d", e, e.CutBefore, cut)
				}
				cut += e.CutAfter - e.CutBefore
				rebalances++
			}
		})
		res, err := Run(context.Background(), r.g, r.cfg, WithObserver(observe))
		if err != nil {
			t.Fatal(err)
		}
		if trace != nil {
			t.Fatalf("%s: %v", r.name, trace)
		}
		if scanned := part.FromBlocks(r.g, r.cfg.K, r.cfg.Eps, res.Blocks).Cut(); cut != res.Cut || res.Cut != scanned {
			t.Fatalf("%s: the trace accounts for cut %d, the run reports %d, the partition cuts %d", r.name, cut, res.Cut, scanned)
		}
	}
	if rebalances == 0 {
		t.Fatal("no run rebalanced")
	}
}
