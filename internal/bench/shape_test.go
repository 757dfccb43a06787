package bench

import (
	"math"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
)

// The shape tests check what the paper's tables claim of KaPPa's results
// rather than pinned bytes, as predicates over the rows of a table — Table 2's
// three presets, or the coarsen ablation's two modes — on the calibration
// suite at k = 16, each row over shapeSeeds seeds (make shape). Their
// tolerances come from ten seeds per row (EXPERIMENTS.md).
const shapeSeeds = 5

// shapeRow is one row of a table: a runner on one instance at one k.
type shapeRow struct {
	Row
	in *Instance
	k  int
}

// table2Rows runs Table 2 once per test binary and returns its rows by
// runner name, in suite order.
var table2Rows = sync.OnceValue(func() map[string][]shapeRow {
	tab, _ := Lookup("2")
	rows := make(map[string][]shapeRow)
	for _, r := range tab.Runners {
		for _, in := range tab.Suite() {
			for _, k := range tab.Ks {
				rows[r.Name] = append(rows[r.Name], shapeRow{r.Run(in.Graph(), k, shapeSeeds), in, k})
			}
		}
	}
	return rows
})

// meanCut is the geometric mean over rows of their average cuts.
func meanCut(rows []shapeRow) float64 {
	var agg geoMean
	for _, r := range rows {
		agg.add(r.Row)
	}
	cut, _, _, _ := agg.mean()
	return cut
}

// TestKaPPaRowsWithinBalance wants every run of every KaPPa row of Table 2
// within balance 1+ε, up to the heaviest node that Lmax = (1+ε)·W/k +
// max c(v) allows beyond it. No further tolerance: over ten seeds the worst
// run on every instance sits exactly at Lmax (rgg13 1.03125 = 528/512,
// band6k 1.0320 = 387/375), none above.
func TestKaPPaRowsWithinBalance(t *testing.T) {
	eps := core.NewConfig(core.Fast, 2).Eps
	for name, rows := range table2Rows() {
		for _, r := range rows {
			g := r.in.Graph()
			limit := 1 + eps + float64(int64(r.k)*g.MaxNodeWeight())/float64(g.TotalNodeWeight())
			if r.MaxBal > limit {
				t.Errorf("%s on %s, k=%d: balance %.5f above 1+ε and one node, %.5f", name, r.in.Name, r.k, r.MaxBal, limit)
			}
		}
	}
}

// TestPresetsOrderedByCut wants Table 2's geometric-mean cuts ordered
// Strong ≤ Fast ≤ Minimal, as the paper's presets trade time for quality.
//
// The tolerance comes from ten seeds per row: the per-seed cut's coefficient
// of variation ranges from 0.002 (social8k) to 0.21 (road12k), so the log of
// a row's five-seed mean spreads by cv/√5, and the log ratio of two presets'
// geometric means over the eight instances by 0.018 (Fast vs Minimal) and
// 0.020 (Strong vs Fast); two of those allow a ratio of e^0.04 ≈ 1.04.
// Measured on the harness's five seeds: Fast/Minimal 0.957, Strong/Fast
// 0.968.
func TestPresetsOrderedByCut(t *testing.T) {
	const tolerance = 1.04
	rows := table2Rows()
	gm := func(name string) float64 { return meanCut(rows[name]) }
	order := []core.Variant{core.Strong, core.Fast, core.Minimal}
	for i := 1; i < len(order); i++ {
		better, worse := gm(order[i-1].String()), gm(order[i].String())
		t.Logf("%v %.1f, %v %.1f: ratio %.3f", order[i-1], better, order[i], worse, better/worse)
		if better > worse*tolerance {
			t.Errorf("geometric-mean cut of %v %.1f above %v's %.1f (ratio %.3f, tolerance %.2f)", order[i-1], better, order[i], worse, better/worse, tolerance)
		}
	}
}

// TestCoarseningModesCutAlike wants the coarsen ablation's two rows — §3's
// PE-local coarsening over extracted subgraphs against the shared-memory
// scheme — within a tolerance of each other: the geometric mean over the
// instances of the distributed/shared average-cut ratio, bounded on both
// sides. Not each instance's ratio: those spread over 0.91–1.056.
//
// The tolerance comes from ten seeds per row: the per-seed cut's coefficient
// of variation ranges from 0.02 (grid3d-16, shared) to 0.21 (road12k,
// distributed), so the log of the geometric-mean ratio of two five-seed means
// over the six instances spreads by σ = 0.025. Seeds 0–4 read 0.996, seeds
// 5–9 1.053 and all ten 1.025, so two σ (e^0.05 ≈ 1.05) would fail a healthy
// seed set; three allow e^0.075 ≈ 1.08.
func TestCoarseningModesCutAlike(t *testing.T) {
	const tolerance = 1.08
	tab, _ := Lookup("coarsen")
	runners := make(map[string]Runner)
	for _, r := range tab.Runners {
		runners[r.Name] = r
	}
	shared, distributed := runners[core.CoarsenShared.String()], runners[core.CoarsenDistributed.String()]
	var logRatio float64
	var n int
	for _, in := range tab.Suite() {
		for _, k := range tab.Ks {
			s, d := shared.Run(in.Graph(), k, shapeSeeds), distributed.Run(in.Graph(), k, shapeSeeds)
			t.Logf("%s, k=%d: shared %.1f, distributed %.1f, ratio %.3f", in.Name, k, s.AvgCut, d.AvgCut, d.AvgCut/s.AvgCut)
			logRatio += math.Log(d.AvgCut / s.AvgCut)
			n++
		}
	}
	gm := math.Exp(logRatio / float64(n))
	t.Logf("geometric-mean ratio %.3f over %d instances", gm, n)
	if gm > tolerance || gm < 1/tolerance {
		t.Errorf("geometric-mean distributed/shared cut ratio %.3f outside [1/%.2f, %.2f]", gm, tolerance, tolerance)
	}
}

// TestToolsOrderedByCut wants geometric-mean cuts ordered KaPPa-Fast <
// kmetis < parmetis over Table 2's rows, within its tolerance, as the
// internal/baseline package doc states of its recipes: the Fast row of Table
// 2 against the two Metis baselines on the same instances, each over
// shapeSeeds seeds.
//
// The tolerance comes from ten seeds per row: the per-seed cut's coefficient
// of variation ranges from 0.002 (social8k) to 0.18 (road12k), so the log
// ratio of two rows' five-seed geometric means over the eight instances
// spreads by σ = 0.018 (Fast vs kmetis) and 0.017 (kmetis vs parmetis); two
// σ allow a ratio of e^0.036 ≈ 1.04. Measured on the harness's five seeds:
// Fast/kmetis 0.805, kmetis/parmetis 1.004 — at one balance bound the two
// Metis recipes cut alike (EXPERIMENTS.md "Tool ordering").
func TestToolsOrderedByCut(t *testing.T) {
	const tolerance = 1.04
	tab, _ := Lookup("2")
	order := []float64{meanCut(table2Rows()[core.Fast.String()])}
	names := []string{core.Fast.String()}
	for _, tl := range []baseline.Tool{baseline.KMetisLike, baseline.ParMetisLike} {
		var rows []shapeRow
		for _, in := range tab.Suite() {
			for _, k := range tab.Ks {
				rows = append(rows, shapeRow{tool(tl).Run(in.Graph(), k, shapeSeeds), in, k})
			}
		}
		order, names = append(order, meanCut(rows)), append(names, tl.String())
	}
	for i := 1; i < len(order); i++ {
		t.Logf("%s %.1f, %s %.1f: ratio %.3f", names[i-1], order[i-1], names[i], order[i], order[i-1]/order[i])
		if order[i-1] > order[i]*tolerance {
			t.Errorf("geometric-mean cut of %s %.1f above %s's %.1f (ratio %.3f, tolerance %.2f)", names[i-1], order[i-1], names[i], order[i], order[i-1]/order[i], tolerance)
		}
	}
}
