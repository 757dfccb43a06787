package bench

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/initpart"
	"repro/internal/matching"
	"repro/internal/rating"
	"repro/internal/refine"
)

// Options scales the experiments: Reps is the number of repetitions per
// configuration (the paper uses 10), Ks overrides a table's block counts,
// and MaxInstances optionally truncates each suite (used by the smoke runs;
// 0 means the full suite).
type Options struct {
	Reps         int
	Ks           []int
	MaxInstances int
}

// Runner is one row label of a table: a partitioner run reps times on (g, k).
type Runner struct {
	Name string
	Run  func(g *graph.Graph, k, reps int) Row
}

// Table is one table or figure of the paper's evaluation (§6), or one
// ablation: every runner over every instance of the suite at every k.
type Table struct {
	Name        string // the benchtables -table key
	Title       string
	Suite       func() []*Instance
	Ks          []int // the paper's block counts; Options.Ks overrides them
	PerInstance bool  // one line per (runner, instance, k), not geometric means
	Runners     []Runner
}

// Print runs the table and writes it to w. Without PerInstance a runner's
// line holds the geometric means over the suite and the block counts, as the
// paper averages ("to give every instance the same influence").
func (t Table) Print(w io.Writer, o Options) {
	reps := o.Reps
	if reps < 1 {
		reps = 3
	}
	ks := o.Ks
	if len(ks) == 0 {
		ks = t.Ks
	}
	suite := t.Suite()
	if o.MaxInstances > 0 && len(suite) > o.MaxInstances {
		suite = suite[:o.MaxInstances]
	}
	fmt.Fprintf(w, "%s, k=%v, %d reps\n", t.Title, ks, reps)
	if !t.PerInstance {
		fmt.Fprintf(w, "%-14s %10s %10s %8s %9s\n", "alg", "avg cut", "best cut", "bal", "t[s]")
		for _, r := range t.Runners {
			var agg geoMean
			for _, in := range suite {
				for _, k := range ks {
					agg.add(r.Run(in.Graph(), k, reps))
				}
			}
			cut, best, bal, sec := agg.mean()
			fmt.Fprintf(w, "%-14s %10.0f %10.0f %8.3f %9.2f\n", r.Name, cut, best, bal, sec)
		}
		return
	}
	fmt.Fprintf(w, "%-14s %-14s %4s %10s %10s %8s %9s\n", "alg", "graph", "k", "avg cut", "best cut", "bal", "t[s]")
	for _, r := range t.Runners {
		for _, in := range suite {
			for _, k := range ks {
				row := r.Run(in.Graph(), k, reps)
				fmt.Fprintf(w, "%-14s %-14s %4d %10.0f %10d %8.3f %9.2f", r.Name, in.Name, k,
					row.AvgCut, row.BestCut, row.AvgBal, row.AvgTime.Seconds())
				if row.Note != "" {
					fmt.Fprintf(w, "  %s", row.Note)
				}
				fmt.Fprintln(w)
			}
		}
	}
}

// Table1 prints the basic properties of every benchmark instance (paper
// Table 1).
func Table1(w io.Writer) {
	fmt.Fprintf(w, "Table 1: benchmark instances (scaled synthetic stand-ins)\n")
	fmt.Fprintf(w, "%-16s %-10s %10s %12s %8s\n", "graph", "family", "n", "m", "coords")
	for _, suite := range [][]*Instance{calibration(), large()} {
		for _, in := range suite {
			g := in.Graph()
			fmt.Fprintf(w, "%-16s %-10s %10d %12d %8v\n",
				in.Name, in.Family, g.NumNodes(), g.NumEdges(), g.HasCoords())
		}
		fmt.Fprintln(w)
	}
}

// Lookup returns the entry of Tables named name.
func Lookup(name string) (Table, bool) {
	for _, t := range Tables() {
		if t.Name == name {
			return t, true
		}
	}
	return Table{}, false
}

// Tables lists, in the paper's order, every table and figure of §6 after
// Table 1, then the ablations of the design choices the paper argues for.
func Tables() []Table {
	k16 := []int{16}
	presets := []Runner{variant(core.Minimal), variant(core.Fast), variant(core.Strong)}
	// The tool comparisons rank best first, as the paper's Tables 4 and 5 do.
	tools := []Runner{presets[2], presets[1], presets[0],
		tool(baseline.ScotchLike), tool(baseline.KMetisLike), tool(baseline.ParMetisLike)}
	band := sweep([]int{1, 5, 20, 1 << 20}, func(c *core.Config, d int) { c.BandDepth = d })
	band[3].Name = "unbounded"
	strategies := []dist.Strategy{dist.StrategyRanges, dist.StrategyRCB}
	dists := sweep(strategies, func(c *core.Config, s dist.Strategy) { c.Distribution = s })
	for i, s := range strategies {
		dists[i] = noted(dists[i], s)
	}
	modes := sweep([]core.CoarsenMode{core.CoarsenShared, core.CoarsenDistributed},
		func(c *core.Config, m core.CoarsenMode) { c.Coarsen = m })
	for i := range modes {
		modes[i] = noted(modes[i], dist.StrategyAuto)
	}

	ts := []Table{
		{"2", "Table 2: parameter presets, calibration suite", calibration, k16, false, presets},
		{"3", "Table 3: edge ratings and sequential matchers, KaPPa-Fast, calibration suite", calibration, k16, false,
			append(sweep([]rating.Func{rating.ExpansionStar2, rating.ExpansionStar, rating.InnerOuter, rating.Expansion, rating.Weight},
				func(c *core.Config, f rating.Func) { c.Rating = f }),
				sweep([]matching.Algorithm{matching.GPA, matching.SHEM, matching.Greedy},
					func(c *core.Config, a matching.Algorithm) { c.Matcher = a })...)},
		{"initpart", "§6.1: initial partitioning engines, KaPPa-Fast, calibration suite", calibration, k16, false,
			sweep([]initpart.Engine{initpart.EngineScotch, initpart.EnginePMetis},
				func(c *core.Config, e initpart.Engine) { c.InitEngine = e })},
		{"4left", "Table 4 (left): queue selection strategies, KaPPa-Fast, calibration suite", calibration, k16, false,
			sweep([]refine.Strategy{refine.TopGain, refine.Alternate, refine.TopGainMaxLoad, refine.MaxLoad},
				func(c *core.Config, s refine.Strategy) { c.Strategy = s })},
		{"4right", "Table 4 (right): comparison with other tools, large suite", large, []int{16, 32, 64}, false, tools},
		{"5", "Table 5: largest graphs with coordinates", largeCoord, []int{64}, true, tools},
	}
	// Tables 6–14: one KaPPa preset at k = 16, 32, 64; Tables 15–20: kMetis
	// and parMetis alternating, at the same three k.
	num := 6
	for _, r := range presets {
		for _, k := range []int{16, 32, 64} {
			ts = append(ts, perInstance(num, r, k))
			num++
		}
	}
	for _, k := range []int{16, 32, 64} {
		for _, r := range []Runner{tool(baseline.KMetisLike), tool(baseline.ParMetisLike)} {
			ts = append(ts, perInstance(num, r, k))
			num++
		}
	}
	return append(ts,
		// In the paper KaPPa keeps scaling to 1024 PEs while parMetis
		// flattens around 100; here PEs are goroutines, so the curves bend at
		// the hardware parallelism but the orderings hold.
		Table{"fig3", "Figure 3: time vs k (PEs = k), the three largest graphs", scalability, []int{4, 8, 16, 32, 64}, true, tools},
		Table{"band", "Ablation: BFS band depth, KaPPa-Fast, calibration suite", calibration, k16, false, band},
		Table{"gap", "Ablation: gap-graph matching (§3.3), KaPPa-Fast, calibration suite", calibration, k16, false,
			sweep([]bool{true, false}, func(c *core.Config, on bool) { c.GapMatching = on })},
		Table{"initrepeats", "Ablation: initial partitioning repeats, KaPPa-Fast, calibration suite", calibration, k16, false,
			sweep([]int{1, 3, 5, 10}, func(c *core.Config, n int) { c.InitRepeats = n })},
		// The paper's claim: geometric prepartitioning (RCB) keeps matching
		// local and beats plain index ranges.
		Table{"dist", "Ablation: distribution strategy (§3.3), KaPPa-Fast, calibration graphs with coordinates",
			calibrationCoords, k16, true, dists},
		// The target: PE-local coarsening over extracted subgraphs stays
		// within a few percent of the shared-memory cut.
		Table{"coarsen", "Ablation: coarsening mode (§3), KaPPa-Fast, calibration graphs with coordinates",
			calibrationCoords, k16, true, modes},
	)
}

// perInstance is one of Tables 6–20: runner r at block count k over the
// large suite, one line per instance.
func perInstance(num int, r Runner, k int) Table {
	return Table{strconv.Itoa(num), fmt.Sprintf("Table %d: %s per instance, large suite", num, r.Name),
		large, []int{k}, true, []Runner{r}}
}

// variant is the runner of one of the paper's presets as it stands.
func variant(v core.Variant) Runner {
	return Runner{v.String(), func(g *graph.Graph, k, reps int) Row {
		return runKaPPa(g, core.NewConfig(v, k), reps)
	}}
}

// sweep is one KaPPa-Fast runner per value, each named after its value and
// applying it with set.
func sweep[T any](vals []T, set func(*core.Config, T)) []Runner {
	rs := make([]Runner, len(vals))
	for i, val := range vals {
		rs[i] = Runner{fmt.Sprint(val), func(g *graph.Graph, k, reps int) Row {
			cfg := core.NewConfig(core.Fast, k)
			set(&cfg, val)
			return runKaPPa(g, cfg, reps)
		}}
	}
	return rs
}

// tool is the runner of a baseline at the paper's 3 % imbalance.
func tool(t baseline.Tool) Runner {
	return Runner{t.String(), func(g *graph.Graph, k, reps int) Row {
		return runTool(g, k, 0.03, t, reps)
	}}
}

// noted makes r's rows carry the edge locality and per-PE imbalance of the
// node-to-PE distribution strategy s produces on the instance.
func noted(r Runner, s dist.Strategy) Runner {
	run := r.Run
	r.Run = func(g *graph.Graph, k, reps int) Row {
		row := run(g, k, reps)
		a := dist.Assign(g, s, k)
		row.Note = fmt.Sprintf("locality %.3f  imbal %.3f", dist.EdgeLocality(g, a), dist.Imbalance(g, a, k))
		return row
	}
	return r
}
