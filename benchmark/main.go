// Command kappabench is the repository's benchmark: five named workloads
// through the four ways the partitioner is run (in-process, coordinator and
// workers over a socket, the same from a shard store, the HTTP job service),
// end-to-end metrics from an untraced run and per-layer metrics from a
// traced one, every result verified. See README.md for the protocol.
//
//	kappabench --workload W --seed S --seconds N --trace 0|1   one run
//	kappabench all [-seed S] [-seconds N]                      every workload, both ways
//	kappabench compare [-same] A.json B.json                   two result sets
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	runtime.GOMAXPROCS(maxProcs())
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "all":
		err = runAll(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "compare":
		err = runCompare(os.Args[2:])
	default:
		err = runOne(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "kappabench:", err)
		os.Exit(1)
	}
}

// runFlags are the flags of a single run, shared with `all`.
type runFlags struct {
	seed    uint64
	seconds float64
	out     string
}

func (f *runFlags) register(fs *flag.FlagSet) {
	fs.Uint64Var(&f.seed, "seed", 1, "generator seed; op i runs with partitioner seed 1000·seed + i mod cycle")
	fs.Float64Var(&f.seconds, "seconds", 10, "length of the timed section")
	fs.StringVar(&f.out, "out", "benchmark/out", "directory for result files, traces and temporary inputs")
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func runOne(args []string) error {
	fs := flag.NewFlagSet("kappabench", flag.ContinueOnError)
	var f runFlags
	f.register(fs)
	name := fs.String("workload", "", "workload to run (required)")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = untraced run reporting the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(f.out, 0o755); err != nil {
		return err
	}
	res, err := run(runConfig{workload: w, sc: fullScale, seed: f.seed, seconds: f.seconds, trace: *trace == 1, outDir: f.out})
	if err != nil {
		return err
	}

	e := res.Env
	fmt.Printf("%s  seed %d  trace %d  nproc %d  GOMAXPROCS %d  %s  %s  commit %s\n",
		w.name, f.seed, *trace, e.NProc, e.GOMAXPROCS, e.CPU, e.Go, e.Commit)
	fmt.Printf("ops n=%d in %.3f s at speed %.3f  op reference seconds q1 %.4f  median %.4f  q3 %.4f  wall-clock q1 %.4f  median %.4f  q3 %.4f  set-up %.3v\n",
		res.Attempted, res.WallSeconds, res.Speed, res.OpQuartiles[0], res.OpQuartiles[1], res.OpQuartiles[2],
		res.WallQuartiles[0], res.WallQuartiles[1], res.WallQuartiles[2], res.SetupSeconds)
	printMetrics(os.Stdout, w.name, res.Metrics)
	if res.Budget != nil {
		printBudget(os.Stdout, w.name, res.Budget)
	}
	for _, note := range res.Notes {
		fmt.Println(note)
	}
	for _, msg := range res.Failures {
		fmt.Println("FAILED", msg)
	}
	line, err := json.Marshal(resultLine{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
