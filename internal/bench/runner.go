package bench

import (
	"context"
	"math"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mem"
)

// Row aggregates repeated runs of one configuration on one instance, the
// way the paper reports them: average cut, best cut, average balance,
// average time — plus the worst balance, and a Note for what a table reports
// besides (the distribution ablations' locality figures).
type Row struct {
	AvgCut  float64
	BestCut int64
	AvgBal  float64
	MaxBal  float64
	AvgTime time.Duration
	Note    string
}

// must unwraps a pipeline call for the harness, which only constructs valid
// configurations and never cancels: an error here is a bug in the harness
// itself.
func must[T any](v T, err error) T {
	if err != nil {
		//kappa:allow panicfree harness-internal configurations are valid by construction
		panic("bench: " + err.Error())
	}
	return v
}

// runKaPPa runs cfg on g `reps` times with different seeds. The repetitions
// share one scratch arena, the way a long-lived service would, so only the
// first rep pays the allocation cost of the working set.
func runKaPPa(g *graph.Graph, cfg core.Config, reps int) Row {
	arena := mem.NewArena()
	return repeat(reps, func(seed uint64) (int64, float64, time.Duration) {
		cfg.Seed = seed
		res := must(core.Run(context.Background(), g, cfg, core.WithArena(arena)))
		return res.Cut, res.Balance, res.TotalTime
	})
}

// runTool runs a baseline partitioner `reps` times with different seeds.
func runTool(g *graph.Graph, k int, eps float64, tool baseline.Tool, reps int) Row {
	return repeat(reps, func(seed uint64) (int64, float64, time.Duration) {
		res := baseline.Run(g, k, eps, tool, seed)
		return res.Cut, res.Balance, res.Time
	})
}

// repeat runs one partitioner at least once, reps times, on the harness's
// seed sequence and averages the runs into a Row.
func repeat(reps int, run func(seed uint64) (cut int64, bal float64, t time.Duration)) Row {
	reps = max(reps, 1)
	var row Row
	var totalCut, totalBal float64
	var totalTime time.Duration
	for i := 0; i < reps; i++ {
		cut, bal, t := run(uint64(i)*0x5bd1e995 + 7)
		totalCut += float64(cut)
		totalBal += bal
		row.MaxBal = max(row.MaxBal, bal)
		totalTime += t
		if i == 0 || cut < row.BestCut {
			row.BestCut = cut
		}
	}
	row.AvgCut = totalCut / float64(reps)
	row.AvgBal = totalBal / float64(reps)
	row.AvgTime = totalTime / time.Duration(reps)
	return row
}

// geoMean accumulates per-instance rows into the geometric means the paper
// reports ("when averaging over multiple instances, we use the geometric
// mean in order to give every instance the same influence").
type geoMean struct {
	logCut, logBest, logBal, logTime float64
	n                                int
}

// add accumulates one row.
func (a *geoMean) add(r Row) {
	a.logCut += math.Log(math.Max(r.AvgCut, 1))
	a.logBest += math.Log(math.Max(float64(r.BestCut), 1))
	a.logBal += math.Log(math.Max(r.AvgBal, 1e-9))
	a.logTime += math.Log(math.Max(r.AvgTime.Seconds(), 1e-9))
	a.n++
}

// mean returns the geometric means of the accumulated rows.
func (a *geoMean) mean() (cut, best, bal, timeSec float64) {
	if a.n == 0 {
		return 0, 0, 0, 0
	}
	n := float64(a.n)
	return math.Exp(a.logCut / n), math.Exp(a.logBest / n), math.Exp(a.logBal / n), math.Exp(a.logTime / n)
}
