package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
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

// TestStopRule pins the contraction threshold at points where each of its
// three terms binds. The rgg:15 (n = 2^15) rows at k = 8 are where the 20·P
// floor, keyed to PEs rather than blocks, leaves five coarse nodes per block
// at pes 2.
func TestStopRule(t *testing.T) {
	cases := []struct {
		n, k, pes int
		want      int
	}{
		{1 << 15, 8, 2, 40},
		{1 << 15, 8, 8, 160},
		{1 << 15, 8, 0, 160},
		{1 << 20, 2, 0, 4369},
		{1000, 64, 1, 128},
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

// TestRebalanceEventShowsTheCliff runs `kappa -gen rgg:15 -k 8 -pes 2
// -seed 1`, whose refined partition is infeasible: the rebalancing pass
// that makes it feasible must report itself, ending at the run's cut.
func TestRebalanceEventShowsTheCliff(t *testing.T) {
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
	if res.Cut != 29655 {
		t.Fatalf("cut %d, want 29655", res.Cut)
	}
	if len(events) != 1 {
		t.Fatalf("%d rebalance events, want 1", len(events))
	}
	e := events[0]
	if e.Level != res.Levels || e.CutAfter != res.Cut || !e.Feasible || e.Moved == 0 || e.CutBefore >= e.CutAfter {
		t.Fatalf("rebalance event %+v for a run of %d levels and cut %d", e, res.Levels, res.Cut)
	}
}

// TestRunTransportPEMismatch checks that a transport sized for the wrong PE
// count is rejected up front as a configuration error.
func TestRunTransportPEMismatch(t *testing.T) {
	g := gen.Grid2D(16, 16)
	cfg := NewConfig(Fast, 8)
	cfg.Coarsen = CoarsenDistributed
	_, err := Run(context.Background(), g, cfg, WithTransport(dist.NewExchanger(4)))
	if !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("got %v, want ErrInvalidConfig", err)
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
