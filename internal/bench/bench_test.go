package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/gen"
)

func TestSuitesNonEmptyAndCached(t *testing.T) {
	if len(calibration()) == 0 || len(large()) == 0 {
		t.Fatal("empty suite")
	}
	in := calibration()[0]
	if in.Graph() != in.Graph() {
		t.Fatal("instance graph not cached")
	}
	if len(largeCoord()) != 4 {
		t.Fatalf("largeCoord has %d instances, want 4", len(largeCoord()))
	}
	if len(scalability()) != 3 {
		t.Fatalf("scalability has %d instances, want 3", len(scalability()))
	}
}

func TestRunKaPPaAndAgg(t *testing.T) {
	row := runKaPPa(gen.Grid2D(64, 64), core.NewConfig(core.Minimal, 4), 2)
	if row.AvgCut <= 0 || row.BestCut <= 0 || row.AvgTime <= 0 {
		t.Fatalf("bad row: %+v", row)
	}
	if float64(row.BestCut) > row.AvgCut+1e-9 {
		t.Fatal("best cut above average")
	}
	var agg geoMean
	agg.add(row)
	agg.add(row)
	cut, best, bal, sec := agg.mean()
	if cut <= 0 || best <= 0 || bal < 1 || sec <= 0 {
		t.Fatalf("bad means: %v %v %v %v", cut, best, bal, sec)
	}
}

func TestRunTool(t *testing.T) {
	row := runTool(gen.Grid2D(64, 64), 4, 0.03, baseline.KMetisLike, 1)
	if row.AvgCut <= 0 {
		t.Fatalf("bad row: %+v", row)
	}
}

func TestAggEmpty(t *testing.T) {
	var agg geoMean
	cut, best, bal, sec := agg.mean()
	if cut != 0 || best != 0 || bal != 0 || sec != 0 {
		t.Fatal("empty geoMean must return zeros")
	}
}

func TestTable1Smoke(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	out := buf.String()
	for _, name := range []string{"rgg13", "rgg16", "eur-like"} {
		if !strings.Contains(out, name) {
			t.Fatalf("Table 1 missing %s", name)
		}
	}
}

// TestTablesSmoke prints every table on one instance at one k and finds
// each runner's row.
func TestTablesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, tab := range Tables() {
		var buf bytes.Buffer
		tab.Print(&buf, Options{Reps: 1, Ks: []int{4}, MaxInstances: 1})
		rows := map[string]int{}
		for _, line := range strings.Split(buf.String(), "\n") {
			if f := strings.Fields(line); len(f) > 0 {
				rows[f[0]]++
			}
		}
		for _, r := range tab.Runners {
			if rows[r.Name] != 1 {
				t.Errorf("table %s: %d rows for %q, want 1:\n%s", tab.Name, rows[r.Name], r.Name, buf.String())
			}
		}
	}
}

// printTable prints the bench.Tables() entry named name at opts.
func printTable(t *testing.T, name string, o Options) string {
	t.Helper()
	tab, ok := Lookup(name)
	if !ok {
		t.Fatalf("no table %q", name)
	}
	var buf bytes.Buffer
	tab.Print(&buf, o)
	return buf.String()
}

func TestTable3Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out := printTable(t, "3", Options{Reps: 1, Ks: []int{4}})
	for _, s := range []string{"expansion*2", "weight", "gpa", "shem", "greedy"} {
		if !strings.Contains(out, s) {
			t.Fatalf("Table 3 missing %q", s)
		}
	}
}

func TestTable4LeftSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out := printTable(t, "4left", Options{Reps: 1, Ks: []int{4}})
	for _, s := range []string{"TopGain", "MaxLoad", "Alternate"} {
		if !strings.Contains(out, s) {
			t.Fatalf("Table 4 left missing %q", s)
		}
	}
}

func TestAblationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out := printTable(t, "gap", Options{Reps: 1, Ks: []int{4}})
	if !strings.Contains(out, "true") || !strings.Contains(out, "false") {
		t.Fatal("gap ablation output incomplete")
	}
}

func TestAblationDistributionSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out := printTable(t, "dist", Options{Reps: 1, Ks: []int{4}, MaxInstances: 3})
	for _, want := range []string{"ranges", "rcb", "rgg13"} {
		if !strings.Contains(out, want) {
			t.Fatalf("distribution ablation output missing %q:\n%s", want, out)
		}
	}
}

func TestRowTimeAveraging(t *testing.T) {
	row := runKaPPa(gen.Grid2D(64, 64), core.NewConfig(core.Minimal, 2), 3)
	if row.AvgTime > time.Minute {
		t.Fatalf("implausible average time %v", row.AvgTime)
	}
}
