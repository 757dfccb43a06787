package bench

import (
	"context"
	"fmt"
	"io"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/initpart"
	"repro/internal/matching"
	"repro/internal/part"
	"repro/internal/rating"
	"repro/internal/refine"
)

// Options scales the experiments: Reps is the number of repetitions per
// configuration (the paper uses 10), Ks the block counts (the paper uses
// 2..64), and MaxInstances optionally truncates each suite (used by the
// scaled-down testing.B benchmarks; 0 means the full suite).
type Options struct {
	Reps         int
	Ks           []int
	MaxInstances int
}

// Defaults fills unset fields.
func (o Options) defaults() Options {
	if o.Reps < 1 {
		o.Reps = 3
	}
	if len(o.Ks) == 0 {
		o.Ks = []int{16}
	}
	return o
}

// limit truncates a suite according to o.MaxInstances.
func (o Options) limit(suite []*Instance) []*Instance {
	if o.MaxInstances > 0 && len(suite) > o.MaxInstances {
		return suite[:o.MaxInstances]
	}
	return suite
}

// Table1 prints the basic properties of every benchmark instance (paper
// Table 1).
func Table1(w io.Writer) {
	fmt.Fprintf(w, "Table 1: benchmark instances (scaled synthetic stand-ins)\n")
	fmt.Fprintf(w, "%-16s %-10s %10s %12s %8s\n", "graph", "family", "n", "m", "coords")
	for _, suite := range [][]*Instance{Calibration(), Large(), Walshaw()} {
		for _, in := range suite {
			g := in.Graph()
			fmt.Fprintf(w, "%-16s %-10s %10d %12d %8v\n",
				in.Name, in.Family, g.NumNodes(), g.NumEdges(), g.HasCoords())
		}
		fmt.Fprintln(w)
	}
}

// Table2 prints the preset comparison of Table 2: the Minimal/Fast/Strong
// parameter columns plus their average cut and time (geometric means over
// the calibration suite).
func Table2(w io.Writer, o Options) {
	o = o.defaults()
	fmt.Fprintf(w, "Table 2: parameter presets (calibration suite, k=%v, %d reps)\n", o.Ks, o.Reps)
	fmt.Fprintf(w, "%-22s %10s %10s %10s\n", "parameter", "minimal", "fast", "strong")
	rows := [][4]string{
		{"rating", "expansion*2", "expansion*2", "expansion*2"},
		{"matching", "GPA", "GPA", "GPA"},
		{"stop contraction", "n/60k^2", "n/60k^2", "n/60k^2"},
		{"init. part.", "scotch-like", "scotch-like", "scotch-like"},
		{"init. repeats", "1", "3", "5"},
		{"queue selection", "TopGain", "TopGain", "TopGain"},
		{"BFS search depth", "1", "5", "20"},
		{"stop refinement", "-", "no change", "2x no change"},
		{"max. global iter", "1", "15", "15"},
		{"local iterations", "1", "3", "5"},
		{"matching selection", "coloring", "coloring", "coloring"},
		{"FM-patience alpha", "1%", "5%", "20%"},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %10s %10s %10s\n", r[0], r[1], r[2], r[3])
	}
	for _, v := range []core.Variant{core.Minimal, core.Fast, core.Strong} {
		var agg Agg
		for _, in := range o.limit(Calibration()) {
			for _, k := range o.Ks {
				agg.Add(RunKaPPa(in.Graph(), core.NewConfig(v, k), o.Reps))
			}
		}
		cut, _, _, t := agg.Mean()
		fmt.Fprintf(w, "%-22s  cut (geom.) %8.0f   time (geom.) %7.2fs\n", v, cut, t)
	}
}

// Table3 prints the edge-rating and matching-algorithm comparisons of
// Table 3 (KaPPa-Fast on the calibration suite).
func Table3(w io.Writer, o Options) {
	o = o.defaults()
	fmt.Fprintf(w, "Table 3 (left): edge ratings, KaPPa-Fast, k=%v, %d reps\n", o.Ks, o.Reps)
	fmt.Fprintf(w, "%-14s %10s %10s %8s %8s\n", "rating", "avg", "best", "bal", "t[s]")
	for _, rf := range []rating.Func{rating.ExpansionStar2, rating.ExpansionStar, rating.InnerOuter, rating.Expansion, rating.Weight} {
		var agg Agg
		for _, in := range o.limit(Calibration()) {
			for _, k := range o.Ks {
				cfg := core.NewConfig(core.Fast, k)
				cfg.Rating = rf
				agg.Add(RunKaPPa(in.Graph(), cfg, o.Reps))
			}
		}
		cut, best, bal, t := agg.Mean()
		fmt.Fprintf(w, "%-14s %10.0f %10.0f %8.3f %8.2f\n", rf, cut, best, bal, t)
	}
	fmt.Fprintf(w, "\nTable 3 (right): sequential matching algorithms\n")
	fmt.Fprintf(w, "%-14s %10s %10s %8s %8s\n", "matcher", "avg", "best", "bal", "t[s]")
	for _, alg := range []matching.Algorithm{matching.GPA, matching.SHEM, matching.Greedy} {
		var agg Agg
		for _, in := range o.limit(Calibration()) {
			for _, k := range o.Ks {
				cfg := core.NewConfig(core.Fast, k)
				cfg.Matcher = alg
				agg.Add(RunKaPPa(in.Graph(), cfg, o.Reps))
			}
		}
		cut, best, bal, t := agg.Mean()
		fmt.Fprintf(w, "%-14s %10.0f %10.0f %8.3f %8.2f\n", alg, cut, best, bal, t)
	}
}

// TableInitPart prints the initial-partitioner comparison reported in the
// §6.1 text (pMetis ~4.7% worse than Scotch).
func TableInitPart(w io.Writer, o Options) {
	o = o.defaults()
	fmt.Fprintf(w, "Initial partitioning engines (KaPPa-Fast, k=%v, %d reps)\n", o.Ks, o.Reps)
	fmt.Fprintf(w, "%-14s %10s %10s %8s\n", "engine", "avg", "best", "t[s]")
	for _, eng := range []initpart.Engine{initpart.EngineScotch, initpart.EnginePMetis} {
		var agg Agg
		for _, in := range o.limit(Calibration()) {
			for _, k := range o.Ks {
				cfg := core.NewConfig(core.Fast, k)
				cfg.InitEngine = eng
				agg.Add(RunKaPPa(in.Graph(), cfg, o.Reps))
			}
		}
		cut, best, _, t := agg.Mean()
		fmt.Fprintf(w, "%-14s %10.0f %10.0f %8.2f\n", eng, cut, best, t)
	}
}

// Table4Left prints the queue-selection comparison (Table 4 left).
func Table4Left(w io.Writer, o Options) {
	o = o.defaults()
	fmt.Fprintf(w, "Table 4 (left): queue selection strategies, KaPPa-Fast, k=%v, %d reps\n", o.Ks, o.Reps)
	fmt.Fprintf(w, "%-16s %10s %10s %8s %8s\n", "strategy", "avg", "best", "bal", "t[s]")
	for _, st := range []refine.Strategy{refine.TopGain, refine.Alternate, refine.TopGainMaxLoad, refine.MaxLoad} {
		var agg Agg
		for _, in := range o.limit(Calibration()) {
			for _, k := range o.Ks {
				cfg := core.NewConfig(core.Fast, k)
				cfg.Strategy = st
				agg.Add(RunKaPPa(in.Graph(), cfg, o.Reps))
			}
		}
		cut, best, bal, t := agg.Mean()
		fmt.Fprintf(w, "%-16s %10.0f %10.0f %8.3f %8.2f\n", st, cut, best, bal, t)
	}
}

// Table4Right prints the tool comparison of Table 4 (right): the three
// KaPPa variants against the baselines, geometric means over the large
// suite.
func Table4Right(w io.Writer, o Options) {
	o = o.defaults()
	fmt.Fprintf(w, "Table 4 (right): comparison with other tools (large suite, k=%v, %d reps)\n", o.Ks, o.Reps)
	fmt.Fprintf(w, "%-16s %10s %10s %8s %8s\n", "variant", "avg", "best", "bal", "t[s]")
	for _, v := range []core.Variant{core.Strong, core.Fast, core.Minimal} {
		var agg Agg
		for _, in := range o.limit(Large()) {
			for _, k := range o.Ks {
				agg.Add(RunKaPPa(in.Graph(), core.NewConfig(v, k), o.Reps))
			}
		}
		cut, best, bal, t := agg.Mean()
		fmt.Fprintf(w, "%-16s %10.0f %10.0f %8.3f %8.2f\n", v, cut, best, bal, t)
	}
	for _, tool := range []baseline.Tool{baseline.ScotchLike, baseline.KMetisLike, baseline.ParMetisLike} {
		var agg Agg
		for _, in := range o.limit(Large()) {
			for _, k := range o.Ks {
				agg.Add(RunTool(in.Graph(), k, 0.03, tool, o.Reps))
			}
		}
		cut, best, bal, t := agg.Mean()
		fmt.Fprintf(w, "%-16s %10.0f %10.0f %8.3f %8.2f\n", tool, cut, best, bal, t)
	}
}

// Table5 prints the per-instance comparison on the largest graphs with
// coordinates at k=64 (paper Table 5).
func Table5(w io.Writer, o Options) {
	o = o.defaults()
	k := 64
	fmt.Fprintf(w, "Table 5: largest graphs with coordinates, k=%d, %d reps\n", k, o.Reps)
	fmt.Fprintf(w, "%-16s %-14s %10s %10s %8s %10s\n", "alg", "graph", "avg cut", "best cut", "bal", "t[s]")
	type runner func(in *Instance) Row
	algs := []struct {
		name string
		run  runner
	}{
		{"KaPPa-strong", func(in *Instance) Row { return RunKaPPa(in.Graph(), core.NewConfig(core.Strong, k), o.Reps) }},
		{"KaPPa-fast", func(in *Instance) Row { return RunKaPPa(in.Graph(), core.NewConfig(core.Fast, k), o.Reps) }},
		{"KaPPa-minimal", func(in *Instance) Row { return RunKaPPa(in.Graph(), core.NewConfig(core.Minimal, k), o.Reps) }},
		{"scotch", func(in *Instance) Row { return RunTool(in.Graph(), k, 0.03, baseline.ScotchLike, o.Reps) }},
		{"kmetis", func(in *Instance) Row { return RunTool(in.Graph(), k, 0.03, baseline.KMetisLike, o.Reps) }},
		{"parmetis", func(in *Instance) Row { return RunTool(in.Graph(), k, 0.03, baseline.ParMetisLike, o.Reps) }},
	}
	for _, alg := range algs {
		for _, in := range o.limit(LargeCoord()) {
			r := alg.run(in)
			fmt.Fprintf(w, "%-16s %-14s %10.0f %10d %8.3f %10.2f\n",
				alg.name, in.Name, r.AvgCut, r.BestCut, r.AvgBal, r.AvgTime.Seconds())
		}
	}
}

// TablePerInstanceVariant prints one of Tables 6–14: per-instance results
// for a KaPPa variant at a fixed k over the large suite.
func TablePerInstanceVariant(w io.Writer, v core.Variant, k int, o Options) {
	o = o.defaults()
	fmt.Fprintf(w, "%s, k=%d (%d reps)\n", v, k, o.Reps)
	fmt.Fprintf(w, "%-16s %10s %10s %8s %10s\n", "graph", "avg cut", "best cut", "bal", "t[s]")
	for _, in := range o.limit(Large()) {
		r := RunKaPPa(in.Graph(), core.NewConfig(v, k), o.Reps)
		fmt.Fprintf(w, "%-16s %10.0f %10d %8.3f %10.2f\n", in.Name, r.AvgCut, r.BestCut, r.AvgBal, r.AvgTime.Seconds())
	}
}

// TablePerInstanceTool prints one of Tables 15–20: per-instance results for
// a baseline tool at a fixed k over the large suite.
func TablePerInstanceTool(w io.Writer, tool baseline.Tool, k int, o Options) {
	o = o.defaults()
	fmt.Fprintf(w, "%s, k=%d (%d reps)\n", tool, k, o.Reps)
	fmt.Fprintf(w, "%-16s %10s %10s %8s %10s\n", "graph", "avg cut", "best cut", "bal", "t[s]")
	for _, in := range o.limit(Large()) {
		r := RunTool(in.Graph(), k, 0.03, tool, o.Reps)
		fmt.Fprintf(w, "%-16s %10.0f %10d %8.3f %10.2f\n", in.Name, r.AvgCut, r.BestCut, r.AvgBal, r.AvgTime.Seconds())
	}
}

// Figure3 prints the scalability series of Figure 3: total time against the
// number of blocks/PEs for the three largest graphs, for the KaPPa variants
// and the baselines. In the paper KaPPa keeps scaling to 1024 PEs while
// parMetis flattens around 100; here PEs are goroutines, so the curves bend
// at the hardware parallelism but the orderings hold.
func Figure3(w io.Writer, o Options) {
	o = o.defaults()
	ks := o.Ks
	if len(ks) <= 1 {
		ks = []int{4, 8, 16, 32, 64}
	}
	fmt.Fprintf(w, "Figure 3: total time [s] vs k (PEs = k), %d reps\n", o.Reps)
	for _, in := range o.limit(Scalability()) {
		fmt.Fprintf(w, "\n== %s (n=%d, m=%d) ==\n", in.Name, in.Graph().NumNodes(), in.Graph().NumEdges())
		fmt.Fprintf(w, "%-16s", "alg \\ k")
		for _, k := range ks {
			fmt.Fprintf(w, " %8d", k)
		}
		fmt.Fprintln(w)
		series := []struct {
			name string
			run  func(k int) float64
		}{
			{"KaPPa-strong", func(k int) float64 {
				return RunKaPPa(in.Graph(), core.NewConfig(core.Strong, k), o.Reps).AvgTime.Seconds()
			}},
			{"KaPPa-fast", func(k int) float64 {
				return RunKaPPa(in.Graph(), core.NewConfig(core.Fast, k), o.Reps).AvgTime.Seconds()
			}},
			{"KaPPa-minimal", func(k int) float64 {
				return RunKaPPa(in.Graph(), core.NewConfig(core.Minimal, k), o.Reps).AvgTime.Seconds()
			}},
			{"scotch", func(k int) float64 {
				return RunTool(in.Graph(), k, 0.03, baseline.ScotchLike, o.Reps).AvgTime.Seconds()
			}},
			{"kmetis", func(k int) float64 {
				return RunTool(in.Graph(), k, 0.03, baseline.KMetisLike, o.Reps).AvgTime.Seconds()
			}},
			{"parmetis", func(k int) float64 {
				return RunTool(in.Graph(), k, 0.03, baseline.ParMetisLike, o.Reps).AvgTime.Seconds()
			}},
		}
		for _, s := range series {
			fmt.Fprintf(w, "%-16s", s.name)
			for _, k := range ks {
				fmt.Fprintf(w, " %8.2f", s.run(k))
			}
			fmt.Fprintln(w)
		}
	}
}

// TableWalshaw prints one of Tables 21–23: for each instance and k, the
// best cut found under the Walshaw rules — try the ratings innerOuter,
// expansion* and expansion*2 repeatedly with a strengthened Strong
// configuration and keep the best feasible result, annotated with the
// winning rating (* = expansion*, ** = expansion*2, + = innerOuter).
func TableWalshaw(w io.Writer, eps float64, o Options) {
	o = o.defaults()
	ks := o.Ks
	if len(ks) <= 1 {
		ks = []int{2, 4, 8, 16, 32, 64}
	}
	fmt.Fprintf(w, "Walshaw benchmark, eps=%.0f%%, %d tries per rating\n", eps*100, o.Reps)
	fmt.Fprintf(w, "%-12s", "graph")
	for _, k := range ks {
		fmt.Fprintf(w, " %12d", k)
	}
	fmt.Fprintln(w)
	marks := map[rating.Func]string{
		rating.ExpansionStar:  "*",
		rating.ExpansionStar2: "**",
		rating.InnerOuter:     "+",
	}
	for _, in := range o.limit(Walshaw()) {
		fmt.Fprintf(w, "%-12s", in.Name)
		g := in.Graph()
		for _, k := range ks {
			bestCut := int64(-1)
			bestMark := "?"
			for _, rf := range []rating.Func{rating.InnerOuter, rating.ExpansionStar, rating.ExpansionStar2} {
				cfg := core.NewConfig(core.Strong, k)
				cfg.Eps = eps
				cfg.Rating = rf
				cfg.Patience = 0.30 // §6.3: FM patience strengthened to 30%
				for rep := 0; rep < o.Reps; rep++ {
					cfg.Seed = uint64(rep)*0x9e3779b9 + uint64(k)
					res := must(core.Run(context.Background(), g, cfg))
					if !part.FromBlocks(g, k, eps, res.Blocks).Feasible() {
						continue
					}
					if bestCut < 0 || res.Cut < bestCut {
						bestCut = res.Cut
						bestMark = marks[rf]
					}
				}
			}
			fmt.Fprintf(w, " %2s%10d", bestMark, bestCut)
		}
		fmt.Fprintln(w)
	}
}

// Figure3Scaling is the strong-scaling view of Figure 3: k is fixed and the
// number of simulated PEs used by the parallel coarsening varies. In the
// paper PEs and blocks coincide and time falls all the way to 1024 PEs; here
// the curve flattens at the machine's core count, but the speedup from 1 PE
// up to the hardware parallelism — and the contrast with the sequential
// baselines, which cannot use more PEs at all — reproduces the claim.
func Figure3Scaling(w io.Writer, o Options) {
	o = o.defaults()
	const k = 32
	pes := []int{1, 2, 4, 8, 16, 32}
	fmt.Fprintf(w, "Figure 3 (strong scaling): KaPPa-Fast total time [s], k=%d, varying PEs, %d reps\n", k, o.Reps)
	for _, in := range o.limit(Scalability()) {
		fmt.Fprintf(w, "\n== %s ==\n", in.Name)
		fmt.Fprintf(w, "%-8s %10s\n", "PEs", "t[s]")
		for _, p := range pes {
			cfg := core.NewConfig(core.Fast, k)
			cfg.PEs = p
			row := RunKaPPa(in.Graph(), cfg, o.Reps)
			fmt.Fprintf(w, "%-8d %10.2f\n", p, row.AvgTime.Seconds())
		}
	}
}
