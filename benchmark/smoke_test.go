package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesCode holds BENCHMARK.json and the declarations in
// metrics.go and workloads.go together, and checks the manifest against the
// limits the driver refuses a file for.
func TestManifestMatchesCode(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, code has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in the manifest, %q in code", i, w.Name, workloads[i].name)
		}
		if c := workloads[i]; c.cycle%c.calEvery != 0 || c.clients > maxProcs() {
			t.Errorf("workload %s: %d callers, cycle %d, calEvery %d", w.Name, c.clients, c.cycle, c.calEvery)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1 to 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDecl, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, code has %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit {
				t.Errorf("%s metric %d: manifest has %s [%s], code has %s [%s]", kind, i, g.Name, g.Unit, w.name, w.unit)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) {
				t.Errorf("%s metric %q [%q] breaks the naming rules", kind, g.Name, g.Unit)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s metric %s: better is %q", kind, g.Name, g.Better)
			}
			switch {
			case !bounded && g.Bound != nil:
				t.Errorf("%s metric %s must not have a bound", kind, g.Name)
			case bounded && (g.Bound == nil || *g.Bound != w.bound || g.Better != w.better):
				t.Errorf("%s metric %s: manifest and code disagree on direction or bound", kind, g.Name)
			case bounded && (*g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s metric %s: bound %v outside (0, 0.25]", kind, g.Name, *g.Bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	if len(m.PerLayer) > 128 || len(m.EndToEnd) > 16 {
		t.Errorf("too many metrics: %d end-to-end, %d per-layer", len(m.EndToEnd), len(m.PerLayer))
	}
	seen := map[string]bool{}
	for _, g := range slices.Concat(m.EndToEnd, m.PerLayer) {
		if seen[g.Name] {
			t.Errorf("metric name %s used twice", g.Name)
		}
		seen[g.Name] = true
	}
	for name := range exact {
		if !seen[name] {
			t.Errorf("exact metric %s is not declared", name)
		}
	}
	if i := slices.IndexFunc(m.EndToEnd, func(g manifestMetric) bool { return g.Name == "setup_s" }); i < 0 ||
		m.EndToEnd[i].Unit != "s" || m.EndToEnd[i].Better != "lower" {
		t.Error("end_to_end must hold setup_s in s, lower is better")
	}
	if !slices.Equal(m.Paths, []string{"benchmark"}) || m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", m.Paths, m.RunSeconds)
	}
}

var smokeScale = scale{mesh: 11, rmat: 9, svcDelaunay: 8, svcRGG: 9, svcRMAT: 8, probeReps: 2}

// TestSmoke runs every workload untraced and traced on the toy scale and
// checks what a run must always deliver: every op verified, every declared
// metric reported once with its unit and nothing else, end-to-end metrics
// non-zero, and the two socket modes agreeing partition by partition.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	out := t.TempDir()
	hashes := map[string][]string{}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(runConfig{workload: w, sc: smokeScale, seed: 3, seconds: 0.2, trace: trace, outDir: out})
			if err != nil {
				t.Fatalf("%s trace %v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < w.cycle {
				t.Errorf("%s trace %v: correct %v, %d of %d ops failed: %v", w.name, trace, res.Correct, res.Failed, res.Attempted, res.Failures)
			}
			want := m.EndToEnd
			if trace {
				want = m.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %v: %d metrics reported, %d declared", w.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %v: declared metric %s not reported", w.name, trace, d.Name)
				case got.Unit != d.Unit:
					t.Errorf("%s: %s reported in %q, declared in %q", w.name, d.Name, got.Unit, d.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.name, d.Name, got.Value)
				}
			}
			if trace {
				if res.Metrics["core.coarsen_s"].Value <= 0 || res.Metrics["core.trace_overhead_ratio"].Value <= 0 || len(res.Budget) == 0 {
					t.Errorf("%s: traced run saw no pipeline phases: %v", w.name, res.Budget)
				}
				continue
			}
			for _, op := range res.Ops[:w.cycle] {
				hashes[w.name] = append(hashes[w.name], op.Hash)
			}
		}
	}
	if !slices.Equal(hashes["socket_dist"], hashes["store_serve"]) {
		t.Errorf("socket_dist and store_serve partitions differ:\n%v\n%v", hashes["socket_dist"], hashes["store_serve"])
	}
	if _, err := os.Stat(out + "/trace-svc_mix.json"); err != nil {
		t.Errorf("traced run left no trace file: %v", err)
	}
	left, _ := os.ReadDir(out)
	for _, e := range left {
		if e.IsDir() {
			t.Errorf("run left its temporary directory %s behind", e.Name())
		}
	}
}
