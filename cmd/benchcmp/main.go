// Command benchcmp gates benchmark regressions against a committed baseline.
//
//	go test -bench 'Table1|Table2' -benchtime=1x -benchmem -run '^$' . > current.txt
//	go run ./cmd/benchcmp -baseline BENCH_BASELINE.txt -current current.txt
//
// Both files are standard `go test -bench` output — the same format benchstat
// reads, so the committed baseline doubles as the benchstat reference for
// deeper analysis. The gate compares the deterministic metrics: allocs/op
// (+5% budget) and B/op (+10%), which are machine-independent when the suite
// runs under GOMAXPROCS=1 because the pipeline itself is deterministic.
// Timing is not its business: wall clock on shared CI runners is noise, and
// `benchmark compare` (benchmark/README.md) is the protocol for it. A
// benchmark present in the baseline but missing from the current run fails
// the gate: silently dropped coverage is itself a regression.
//
// Refresh the baseline intentionally (make bench-baseline) when a PR changes
// the allocation profile on purpose, and commit the new file with the change
// that explains it.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Regression budgets in percent.
const (
	maxAllocsPct = 5
	maxBytesPct  = 10
)

// metrics is one benchmark's measured values.
type metrics struct {
	bytes  float64
	allocs float64
	has    bool // B/op + allocs/op present (-benchmem)
}

// parseBench reads `go test -bench` output, keyed by benchmark name with any
// -GOMAXPROCS suffix stripped, so files measured at different core counts
// still line up.
func parseBench(path string) (map[string]metrics, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]metrics)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := stripProcs(fields[0])
		var m metrics
		// fields[1] is the iteration count; after it come value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad value %q for %s: %v", path, fields[i], name, err)
			}
			switch fields[i+1] {
			case "B/op":
				m.bytes = v
				m.has = true
			case "allocs/op":
				m.allocs = v
				m.has = true
			}
		}
		out[name] = m
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines found", path)
	}
	return out, nil
}

// stripProcs removes the -N GOMAXPROCS suffix go test appends on
// multi-core hosts.
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// pct is the relative change of cur over base, in percent.
func pct(base, cur float64) float64 {
	if base == 0 {
		if cur == 0 {
			return 0
		}
		return 100
	}
	return (cur - base) / base * 100
}

func main() {
	var (
		basePath = flag.String("baseline", "BENCH_BASELINE.txt", "committed baseline (`go test -bench` output)")
		curPath  = flag.String("current", "", "current measurement to gate (same format); required")
	)
	flag.Parse()
	if *curPath == "" {
		fmt.Fprintln(os.Stderr, "benchcmp: -current is required")
		os.Exit(2)
	}
	base, err := parseBench(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	cur, err := parseBench(*curPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}

	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	for _, name := range names {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			fmt.Printf("FAIL  %s: in the baseline but not in the current run — dropped coverage\n", name)
			failed = true
			continue
		}
		if !b.has || !c.has {
			fmt.Printf("FAIL  %s: missing -benchmem metrics (baseline %v, current %v)\n", name, b.has, c.has)
			failed = true
			continue
		}
		for _, g := range []struct {
			metric    string
			base, cur float64
			budget    float64
		}{
			{"allocs/op", b.allocs, c.allocs, maxAllocsPct},
			{"B/op", b.bytes, c.bytes, maxBytesPct},
		} {
			delta := pct(g.base, g.cur)
			verdict := "ok  "
			if delta > g.budget {
				verdict = "FAIL"
				failed = true
			}
			fmt.Printf("%s  %s: %s %.0f -> %.0f (%+.2f%%, budget +%.0f%%)\n",
				verdict, name, g.metric, g.base, g.cur, delta, g.budget)
		}
	}
	extra := make([]string, 0, len(cur))
	for name := range cur {
		if _, ok := base[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Printf("note  %s: not in the baseline; refresh with `make bench-baseline` to start gating it\n", name)
	}
	if failed {
		fmt.Println("benchcmp: regression beyond budget (or lost coverage); if intentional, refresh BENCH_BASELINE.txt via `make bench-baseline` and commit it")
		os.Exit(1)
	}
	fmt.Println("benchcmp: within budget")
}
