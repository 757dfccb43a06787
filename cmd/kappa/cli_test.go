package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// runFailing runs kappa with args, requires exit code 1, and returns the
// combined output.
func runFailing(t *testing.T, kappa string, args ...string) string {
	t.Helper()
	out, err := exec.Command(kappa, args...).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("kappa %v: want exit 1, got %v\n%s", args, err, out)
	}
	return string(out)
}

// TestMoreBlocksThanNodesExitsTwo pins the usage-error promise for a k
// larger than the graph: exit 2 with a diagnostic, where it once ran out of
// memory sizing the refinement schedule's colour sets.
func TestMoreBlocksThanNodesExitsTwo(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	kappa, _ := buildBinaries(t)
	out, err := exec.Command(kappa, "-gen", "rgg:8", "-k", "100000").CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("kappa -gen rgg:8 -k 100000: want exit 2, got %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "256 nodes") {
		t.Fatalf("diagnostic does not name the node count:\n%s", out)
	}
}

// TestEvalRejectsOutOfRangeBlock pins the bad-input promise for -eval: a
// block id outside [0, k) is a runtime error naming the line, not a panic.
func TestEvalRejectsOutOfRangeBlock(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	kappa, _ := buildBinaries(t)
	for _, bad := range []string{"7", "-1"} {
		partFile := filepath.Join(t.TempDir(), "p.txt")
		lines := strings.Repeat("0\n1\n", 8) // grid:4x4 has 16 nodes
		lines = lines[:4] + bad + "\n" + lines[6:]
		if err := os.WriteFile(partFile, []byte(lines), 0o644); err != nil {
			t.Fatal(err)
		}
		out := runFailing(t, kappa, "-gen", "grid:4x4", "-k", "2", "-eval", partFile)
		if strings.Contains(out, "panic") || !strings.Contains(out, "p.txt:3: block "+bad) {
			t.Fatalf("block id %s: want a diagnostic naming line 3, got:\n%s", bad, out)
		}
	}
}

// TestEvalWritesReport pins that -eval finishes its observability: the
// -report file is written, and its result cut is the printed "after
// refining" cut.
func TestEvalWritesReport(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	kappa, _ := buildBinaries(t)
	dir := t.TempDir()
	partFile, reportFile := filepath.Join(dir, "p.txt"), filepath.Join(dir, "r.json")
	// grid:16x16 has 256 nodes; stripes give refinement something to do.
	if err := os.WriteFile(partFile, []byte(strings.Repeat("0\n1\n2\n3\n", 64)), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(kappa, "-gen", "grid:16x16", "-k", "4", "-seed", "1",
		"-eval", partFile, "-report", reportFile).CombinedOutput()
	if err != nil {
		t.Fatalf("kappa -eval: %v\n%s", err, out)
	}
	printed := regexp.MustCompile(`after refining: +cut=(\d+)`).FindSubmatch(out)
	if printed == nil {
		t.Fatalf("no refined cut printed:\n%s", out)
	}
	raw, err := os.ReadFile(reportFile)
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, raw)
	}
	if got := strconv.FormatInt(rep.Result.Cut, 10); got != string(printed[1]) {
		t.Fatalf("report result.cut %s, printed %s", got, printed[1])
	}
}

// TestOutWriteErrorExitsOne pins that a partition file that could not be
// written completely is an error, not a "written" confirmation.
func TestOutWriteErrorExitsOne(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	kappa, _ := buildBinaries(t)
	out := runFailing(t, kappa, "-gen", "grid:4x4", "-k", "2", "-out", "/dev/full")
	if strings.Contains(out, "written") || !strings.Contains(out, "/dev/full") {
		t.Fatalf("want a write error naming the file and no confirmation, got:\n%s", out)
	}
}

// TestSharedFlagsKeepNamesAndDefaults parses each command's -h and checks
// the run flags the commands share against the names and defaults they have
// always had ("" = the zero value, which -h does not print).
func TestSharedFlagsKeepNamesAndDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	kappa, _ := buildBinaries(t)
	input := map[string]string{"in": "", "gen": "", "dist": `"auto"`, "seed": ""}
	run := map[string]string{"k": "2", "preset": `"fast"`, "eps": "0.03", "pes": "", "out": "", "progress": "", "timeout": ""}
	flagLine := regexp.MustCompile(`(?m)^  -(\S+).*\n(.*)$`)
	defaultOf := regexp.MustCompile(`\(default (.*)\)$`)
	for _, tc := range []struct {
		cmd  []string
		want []map[string]string
	}{
		{nil, []map[string]string{input, run}},
		{[]string{"serve"}, []map[string]string{input, run}},
		{[]string{"shard"}, []map[string]string{input}},
	} {
		help, _ := exec.Command(kappa, append(tc.cmd, "-h")...).CombinedOutput()
		got := map[string]string{}
		for _, m := range flagLine.FindAllStringSubmatch(string(help), -1) {
			got[m[1]] = ""
			if d := defaultOf.FindStringSubmatch(m[2]); d != nil {
				got[m[1]] = d[1]
			}
		}
		for _, group := range tc.want {
			for name, def := range group {
				if have, ok := got[name]; !ok || have != def {
					t.Errorf("kappa %v: flag -%s has default %q (present %v), want %q", tc.cmd, name, have, ok, def)
				}
			}
		}
	}
}
