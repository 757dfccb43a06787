package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/part"
)

// runFlags are the flags that describe a run, shared by `kappa` and `kappa
// serve`; `kappa shard` describes a store, not a run, and takes the input
// subset only.
type runFlags struct {
	in, gen, dist string
	seed          uint64

	k, pes   int
	preset   string
	eps      float64
	out      string
	progress bool
	timeout  time.Duration
}

// registerInput installs the flags that say which graph, distributed how:
// -in, -gen, -dist, -seed.
func (f *runFlags) registerInput(fs *flag.FlagSet) {
	fs.StringVar(&f.in, "in", "", "input graph file (METIS or binary; format sniffed)")
	fs.StringVar(&f.gen, "gen", "", "generator spec: rgg:S | delaunay:S | grid:WxH | grid3d:XxYxZ | road:N | social:N | rmat:S | fem:N | banded:N")
	fs.StringVar(&f.dist, "dist", "auto", "node-to-PE distribution: auto | ranges | rcb")
	fs.Uint64Var(&f.seed, "seed", 0, "random seed")
}

// register installs every run flag on fs (flag.CommandLine for the root
// command).
func (f *runFlags) register(fs *flag.FlagSet) {
	f.registerInput(fs)
	fs.IntVar(&f.k, "k", 2, "number of blocks")
	fs.StringVar(&f.preset, "preset", "fast", "minimal | fast | strong")
	fs.Float64Var(&f.eps, "eps", 0.03, "allowed imbalance")
	fs.IntVar(&f.pes, "pes", 0, "number of simulated PEs for coarsening (default: k)")
	fs.StringVar(&f.out, "out", "", "write the block of each node, one per line")
	fs.BoolVar(&f.progress, "progress", false, "print pipeline trace events (levels, init cut, refinement gains, phase times) to stderr")
	fs.DurationVar(&f.timeout, "timeout", 0, "abort the run after this duration (e.g. 30s); 0 = no limit")
}

// config is the one flags-to-Config path; workers and coarsen are the two
// names only the root command exposes.
func (f *runFlags) config(workers int, coarsen string) (core.Config, error) {
	return core.ConfigFromNames(f.preset, f.k, f.eps, f.seed, f.pes, workers, f.dist, coarsen)
}

// options wires -progress and the observability flags into pipeline options.
func (f *runFlags) options(ob *obsFlags, g *graph.Graph, cfg core.Config) (*runObs, []core.Option, error) {
	var opts []core.Option
	if f.progress {
		opts = append(opts, progressOption())
	}
	ro, obsOpts, err := ob.setup(g, cfg)
	return ro, append(opts, obsOpts...), err
}

// runContext is the context every long-running command works under:
// SIGINT/SIGTERM cancel it, so the work unwinds, cleanup runs and the process
// exits 1; a positive timeout bounds it.
func runContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if timeout <= 0 {
		return ctx, stop
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	return ctx, func() { cancel(); stop() }
}

// printSummary prints the human-readable result of a run to w, writes -out,
// and confirms the file only once it is complete. mode is the command's own
// part of the preset line; extra lines go between the configuration and the
// result.
func (f *runFlags) printSummary(w io.Writer, g *graph.Graph, cfg core.Config, res core.Result, mode string, extra ...string) error {
	variant, _ := core.ParseVariant(f.preset) // the name config accepted
	p := part.FromBlocks(g, f.k, f.eps, res.Blocks)
	fmt.Fprintf(w, "graph     n=%d m=%d\n", g.NumNodes(), g.NumEdges())
	fmt.Fprintf(w, "preset    %s (k=%d, eps=%.2f, dist=%s, %s)\n", variant, f.k, f.eps, cfg.Distribution, mode)
	for _, line := range extra {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "cut       %d\n", res.Cut)
	fmt.Fprintf(w, "balance   %.4f (Lmax %d, feasible %v)\n", res.Balance, p.Lmax(), p.Feasible())
	fmt.Fprintf(w, "levels    %d\n", res.Levels)
	fmt.Fprintf(w, "time      total %v (coarsen %v, init %v, refine %v)\n",
		res.TotalTime.Round(1e6), res.CoarsenTime.Round(1e6), res.InitTime.Round(1e6), res.RefineTime.Round(1e6))
	if f.out == "" {
		return nil
	}
	if err := os.WriteFile(f.out, graphio.AppendPartition(nil, res.Blocks), 0o666); err != nil {
		return err
	}
	fmt.Fprintf(w, "partition written to %s\n", f.out)
	return nil
}
