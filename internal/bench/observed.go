package bench

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/obs"
)

// RunKaPPaObserved is RunKaPPa with the full observability stack attached:
// the pipeline metric observer, a metered transport, and arena gauges, all
// feeding reg. It exists to measure the cost of observation — benchmarked
// against the unobserved RunKaPPa, the delta is the overhead of the metrics
// path (recorded in the BENCH_*.json trajectory as Partition/…/observed).
func RunKaPPaObserved(g *graph.Graph, cfg core.Config, reps int, reg *obs.Registry) Row {
	if reps < 1 {
		reps = 1
	}
	var row Row
	var totalCut, totalBal float64
	var tm core.Timings
	arena := mem.NewArena()
	stats := dist.NewTransportStats(cfg.NumPEs())
	obs.BindTransport(reg, stats)
	obs.BindArena(reg, arena)
	observer := obs.NewPipelineObserver(reg)
	for i := 0; i < reps; i++ {
		cfg.Seed = uint64(i)*0x5bd1e995 + 7
		res := must(core.Run(context.Background(), g, cfg,
			core.WithObserver(&tm),
			core.WithObserver(observer),
			core.WithTransportStats(stats),
			core.WithArena(arena)))
		obs.RecordResult(reg, res)
		totalCut += float64(res.Cut)
		totalBal += res.Balance
		if i == 0 || res.Cut < row.BestCut {
			row.BestCut = res.Cut
		}
	}
	row.AvgCut = totalCut / float64(reps)
	row.AvgBal = totalBal / float64(reps)
	row.AvgTime = tm.Total / time.Duration(reps)
	row.AvgCoarsen = tm.Coarsen / time.Duration(reps)
	row.AvgInit = tm.Init / time.Duration(reps)
	row.AvgRefine = tm.Refine / time.Duration(reps)
	return row
}
