package core

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/part"
	"repro/internal/rng"
)

func TestRefineExistingImproves(t *testing.T) {
	g := gen.RGG(11, 4)
	n := g.NumNodes()
	r := rng.New(7)
	// A noisy striped partition: plenty of room for improvement.
	blocks := make([]int32, n)
	for v := 0; v < n; v++ {
		blocks[v] = int32(4 * v / n)
	}
	for i := 0; i < n/10; i++ {
		blocks[r.Intn(n)] = int32(r.Intn(4))
	}
	cfg := NewConfig(Fast, 4)
	cfg.Seed = 5
	before := part.FromBlocks(g, 4, cfg.Eps, append([]int32(nil), blocks...)).Cut()
	refined, cut, err := RefineExistingCtx(context.Background(), g, cfg, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if cut >= before {
		t.Fatalf("RefineExistingCtx did not improve: %d -> %d", before, cut)
	}
	p := part.FromBlocks(g, 4, cfg.Eps, refined)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Cut() != cut {
		t.Fatalf("reported cut %d != actual %d", cut, p.Cut())
	}
	if !p.Feasible() {
		t.Fatal("refined partition infeasible")
	}
}

func TestRefineExistingPreservesInput(t *testing.T) {
	g := gen.Grid2D(12, 12)
	blocks := make([]int32, g.NumNodes())
	for v := range blocks {
		blocks[v] = int32(v % 2)
	}
	snapshot := append([]int32(nil), blocks...)
	cfg := NewConfig(Fast, 2)
	if _, _, err := RefineExistingCtx(context.Background(), g, cfg, blocks); err != nil {
		t.Fatal(err)
	}
	for v := range blocks {
		if blocks[v] != snapshot[v] {
			t.Fatal("RefineExistingCtx mutated its input")
		}
	}
}

func TestRefineExistingRepairsImbalance(t *testing.T) {
	g := gen.Grid2D(16, 16)
	blocks := make([]int32, g.NumNodes()) // everything in block 0
	cfg := NewConfig(Fast, 4)
	cfg.Seed = 3
	var events []TraceEvent
	refined, _, err := RefineExistingCtx(context.Background(), g, cfg, blocks,
		WithObserver(ObserverFunc(func(ev TraceEvent) { events = append(events, ev) })))
	if err != nil {
		t.Fatal(err)
	}
	p := part.FromBlocks(g, 4, cfg.Eps, refined)
	if !p.Feasible() {
		t.Fatalf("imbalanced input not repaired: %.3f", p.Imbalance())
	}
	// The input has no cut; the rebalance that repairs it comes first.
	if e, ok := events[0].(RebalanceEvent); !ok || e.Level != 0 || e.CutBefore != 0 || e.Moved == 0 || !e.Feasible {
		t.Fatalf("first event %v, want the rebalance of the input", events[0])
	}
}
