package bench

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/refine"
	"repro/internal/rng"
)

// Ablations exercise the design choices DESIGN.md calls out beyond the
// paper's own parameter studies.

// AblationPairwiseVsKway contrasts the paper's pairwise two-block refinement
// with the classical global k-way refinement on the same multilevel
// machinery (§8: localizing the search improves quality *and* enables
// parallelism).
func AblationPairwiseVsKway(w io.Writer, o Options) {
	o = o.defaults()
	fmt.Fprintf(w, "Ablation: pairwise (KaPPa) vs global k-way refinement, k=%v, %d reps\n", o.Ks, o.Reps)
	fmt.Fprintf(w, "%-14s %-12s %10s %10s\n", "graph", "refinement", "avg cut", "t[s]")
	for _, in := range o.limit(Calibration()) {
		g := in.Graph()
		for _, k := range o.Ks {
			pair := RunKaPPa(g, core.NewConfig(core.Fast, k), o.Reps)
			kway := runKwayVariant(g, k, o.Reps)
			fmt.Fprintf(w, "%-14s %-12s %10.0f %10.2f\n", in.Name, "pairwise", pair.AvgCut, pair.AvgTime.Seconds())
			fmt.Fprintf(w, "%-14s %-12s %10.0f %10.2f\n", in.Name, "k-way", kway.AvgCut, kway.AvgTime.Seconds())
		}
	}
}

// runKwayVariant runs the KaPPa pipeline but replaces the pairwise
// refinement with greedy k-way passes: same coarsening, same initial
// partitioning.
func runKwayVariant(g *graph.Graph, k int, reps int) Row {
	var row Row
	var totalCut float64
	for i := 0; i < reps; i++ {
		cfg := core.NewConfig(core.Fast, k)
		cfg.Seed = uint64(i)*31 + 5
		// Approximate: run KaPPa with refinement disabled (1 global
		// iteration, band 1, patience 0) and then k-way refine the result.
		cfg.MaxGlobalIter = 1
		cfg.LocalIter = 1
		cfg.BandDepth = 1
		cfg.Patience = 0.01
		res := must(core.Run(context.Background(), g, cfg))
		p := part.FromBlocks(g, k, cfg.Eps, res.Blocks)
		refine.KWayGreedy(p, 3, rng.New(uint64(i)))
		totalCut += float64(p.Cut())
		if c := p.Cut(); i == 0 || c < row.BestCut {
			row.BestCut = c
		}
	}
	row.AvgCut = totalCut / float64(reps)
	return row
}

// AblationDistribution contrasts the node-to-PE distribution strategies of
// §3.3 on the mesh-family instances with coordinates (rgg, Delaunay, grid):
// per strategy it reports the prepartition's edge locality and per-PE weight
// imbalance, then the cut the full pipeline reaches when coarsening on top
// of that distribution. The paper's claim is that geometric prepartitioning
// (RCB; here also the cheaper SFC) keeps matching local and improves
// parallel matching quality over plain index ranges.
func AblationDistribution(w io.Writer, o Options) {
	o = o.defaults()
	fmt.Fprintf(w, "Ablation: distribution strategy, KaPPa-Fast, k=%v, %d reps\n", o.Ks, o.Reps)
	fmt.Fprintf(w, "%-14s %-8s %10s %10s %10s %10s\n", "graph", "dist", "locality", "imbal", "avg cut", "t[s]")
	strategies := []dist.Strategy{dist.StrategyRanges, dist.StrategyRCB, dist.StrategySFC}
	for _, in := range o.limit(Calibration()) {
		g := in.Graph()
		if !g.HasCoords() {
			continue // geometric strategies would silently fall back
		}
		for _, k := range o.Ks {
			for _, s := range strategies {
				assign := dist.Assign(g, s, k)
				locality := dist.EdgeLocality(g, assign)
				imbal := dist.Imbalance(g, assign, k)
				cfg := core.NewConfig(core.Fast, k)
				cfg.Distribution = s
				row := RunKaPPa(g, cfg, o.Reps)
				fmt.Fprintf(w, "%-14s %-8s %10.3f %10.3f %10.0f %10.2f\n",
					in.Name, s, locality, imbal, row.AvgCut, row.AvgTime.Seconds())
			}
		}
	}
}

// AblationCoarsenMode contrasts shared-memory coarsening with PE-local
// coarsening over extracted subgraphs with ghost exchange (§3) on the
// coordinate-carrying instances: per mode it reports the edge locality of
// the node-to-PE distribution the coarsening runs on, then the cut and time
// the full pipeline reaches. The reproduction target is that the distributed
// mode — the configuration that would survive graphs too large for one
// address space — stays within a few percent of the shared-memory cut.
func AblationCoarsenMode(w io.Writer, o Options) {
	o = o.defaults()
	fmt.Fprintf(w, "Ablation: coarsening mode, KaPPa-Fast, k=%v, %d reps\n", o.Ks, o.Reps)
	fmt.Fprintf(w, "%-14s %-12s %10s %10s %10s\n", "graph", "coarsen", "locality", "avg cut", "t[s]")
	for _, in := range o.limit(Calibration()) {
		g := in.Graph()
		if !g.HasCoords() {
			continue // keep the comparison on the geometric instances
		}
		for _, k := range o.Ks {
			assign := dist.Assign(g, dist.StrategyAuto, k)
			locality := dist.EdgeLocality(g, assign)
			for _, mode := range []core.CoarsenMode{core.CoarsenShared, core.CoarsenDistributed} {
				cfg := core.NewConfig(core.Fast, k)
				cfg.Coarsen = mode
				row := RunKaPPa(g, cfg, o.Reps)
				fmt.Fprintf(w, "%-14s %-12s %10.3f %10.0f %10.2f\n",
					in.Name, mode, locality, row.AvgCut, row.AvgTime.Seconds())
			}
		}
	}
}

// AblationBandDepth sweeps the BFS band depth (Table 2's 1/5/20 values plus
// an effectively unbounded search).
func AblationBandDepth(w io.Writer, o Options) {
	o = o.defaults()
	fmt.Fprintf(w, "Ablation: band depth sweep, KaPPa-Fast, k=%v, %d reps\n", o.Ks, o.Reps)
	fmt.Fprintf(w, "%-10s %10s %10s\n", "depth", "avg cut", "t[s]")
	for _, depth := range []int{1, 5, 20, 1 << 20} {
		var agg Agg
		for _, in := range o.limit(Calibration()) {
			for _, k := range o.Ks {
				cfg := core.NewConfig(core.Fast, k)
				cfg.BandDepth = depth
				agg.Add(RunKaPPa(in.Graph(), cfg, o.Reps))
			}
		}
		cut, _, _, t := agg.Mean()
		name := fmt.Sprint(depth)
		if depth >= 1<<20 {
			name = "unbounded"
		}
		fmt.Fprintf(w, "%-10s %10.0f %10.2f\n", name, cut, t)
	}
}

// AblationGapMatching toggles the gap-graph matching of §3.3 on and off.
func AblationGapMatching(w io.Writer, o Options) {
	o = o.defaults()
	fmt.Fprintf(w, "Ablation: gap-graph matching, KaPPa-Fast, k=%v, %d reps\n", o.Ks, o.Reps)
	fmt.Fprintf(w, "%-10s %10s %10s %8s\n", "gap", "avg cut", "t[s]", "levels")
	for _, gap := range []bool{true, false} {
		var agg Agg
		for _, in := range o.limit(Calibration()) {
			for _, k := range o.Ks {
				cfg := core.NewConfig(core.Fast, k)
				cfg.GapMatching = gap
				agg.Add(RunKaPPa(in.Graph(), cfg, o.Reps))
			}
		}
		cut, _, _, t := agg.Mean()
		fmt.Fprintf(w, "%-10v %10.0f %10.2f\n", gap, cut, t)
	}
}

// AblationSchedule contrasts the distributed edge-coloring schedule with the
// random-maximal-matching schedule (§5.1: coloring performs slightly
// better).
func AblationSchedule(w io.Writer, o Options) {
	o = o.defaults()
	fmt.Fprintf(w, "Ablation: pair scheduling, KaPPa-Fast, k=%v, %d reps\n", o.Ks, o.Reps)
	fmt.Fprintf(w, "%-14s %10s %10s\n", "schedule", "avg cut", "t[s]")
	for _, sched := range []core.Schedule{core.ScheduleColoring, core.ScheduleRandomPairs} {
		var agg Agg
		for _, in := range o.limit(Calibration()) {
			for _, k := range o.Ks {
				cfg := core.NewConfig(core.Fast, k)
				cfg.Schedule = sched
				agg.Add(RunKaPPa(in.Graph(), cfg, o.Reps))
			}
		}
		cut, _, _, t := agg.Mean()
		name := "coloring"
		if sched == core.ScheduleRandomPairs {
			name = "random-pairs"
		}
		fmt.Fprintf(w, "%-14s %10.0f %10.2f\n", name, cut, t)
	}
}

// AblationInitRepeats sweeps the number of initial-partitioning repeats.
func AblationInitRepeats(w io.Writer, o Options) {
	o = o.defaults()
	fmt.Fprintf(w, "Ablation: initial partitioning repeats, KaPPa-Fast, k=%v, %d reps\n", o.Ks, o.Reps)
	fmt.Fprintf(w, "%-10s %10s %10s\n", "repeats", "avg cut", "t[s]")
	for _, reps := range []int{1, 3, 5, 10} {
		var agg Agg
		for _, in := range o.limit(Calibration()) {
			for _, k := range o.Ks {
				cfg := core.NewConfig(core.Fast, k)
				cfg.InitRepeats = reps
				agg.Add(RunKaPPa(in.Graph(), cfg, o.Reps))
			}
		}
		cut, _, _, t := agg.Mean()
		fmt.Fprintf(w, "%-10d %10.0f %10.2f\n", reps, cut, t)
	}
}

// AblationEvolveVsRestarts contrasts plain restarts with the evolutionary
// regime of §8 at equal budget (population+generations runs each).
func AblationEvolveVsRestarts(w io.Writer, o Options) {
	o = o.defaults()
	fmt.Fprintf(w, "Ablation: evolutionary search vs plain restarts, k=%v, %d reps\n", o.Ks, o.Reps)
	fmt.Fprintf(w, "%-14s %-12s %10s\n", "graph", "regime", "cut")
	for _, in := range o.limit(Calibration()) {
		for _, k := range o.Ks {
			cfg := core.NewConfig(core.Fast, k)
			cfg.Seed = 17
			restarts := must(core.Evolve(context.Background(), in.Graph(), cfg, 4, 0)) // 4 independent runs
			evolved := must(core.Evolve(context.Background(), in.Graph(), cfg, 2, 2))  // 2 + 2 with mutation
			fmt.Fprintf(w, "%-14s %-12s %10d\n", in.Name, "restarts", restarts.Cut)
			fmt.Fprintf(w, "%-14s %-12s %10d\n", in.Name, "evolve", evolved.Cut)
		}
	}
}
