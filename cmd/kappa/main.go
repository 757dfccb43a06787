// Command kappa partitions a graph with the KaPPa partitioner.
//
// The input is a graph file (METIS text or binary .bgraph, format sniffed)
// or a named synthetic generator. Examples:
//
//	kappa -in mesh.graph -k 16 -preset strong -out mesh.part
//	kappa -gen rgg:15 -k 64 -preset fast
//	kappa -gen road:40000 -k 8 -eps 0.05 -seed 7
//	kappa -gen grid3d:32x32x8 -k 8 -progress -timeout 30s
//
// The serve/worker subcommands run the out-of-process backend — one
// coordinator plus one worker process per PE, byte-identical to the
// in-process `-coarsen distributed` run at the same seed:
//
//	kappa serve -in mesh.graph -k 8 -pes 2 -listen 127.0.0.1:2177 &
//	kappa worker -connect 127.0.0.1:2177 &
//	kappa worker -connect 127.0.0.1:2177
//
// The shard subcommand writes an out-of-core shard store that serve streams
// without holding the global graph in memory — same partition, same report:
//
//	kappa shard -in mesh.graph -pe 8 -dist rcb -o mesh.kst
//	kappa serve -shards mesh.kst -k 8 -listen 127.0.0.1:2177
//
// Configuration errors (bad preset, bad flag values, invalid parameter
// combinations) exit 2; runtime errors (missing files, exceeded -timeout)
// exit 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/part"
)

// stopProfiles flushes any active pprof output; it must run before every
// exit path, including failures — os.Exit skips defers, and a truncated CPU
// profile on a timed-out run is useless in exactly the situation the flag
// exists for.
var stopProfiles = func() {}

// fail prints the message and exits: usage and configuration errors exit 2
// (the Unix convention flag.Parse also follows), runtime errors exit 1.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "kappa:", err)
	stopProfiles()
	if errors.Is(err, core.ErrInvalidConfig) {
		os.Exit(2)
	}
	os.Exit(1)
}

func main() {
	// Subcommands: `kappa serve` runs the out-of-process coordinator,
	// `kappa worker` one PE process, `kappa api` the partitioner-as-a-service
	// daemon. Everything else is the classic single-process flag interface.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			runServe(os.Args[2:])
			return
		case "worker":
			runWorker(os.Args[2:])
			return
		case "api":
			runAPI(os.Args[2:])
			return
		case "shard":
			runShard(os.Args[2:])
			return
		}
	}
	var (
		coarsFl = flag.String("coarsen", "shared", "coarsening mode: shared | distributed")
		eval    = flag.String("eval", "", "evaluate (and refine) an existing partition file instead of partitioning from scratch")
		workers = flag.Int("workers", 0, "members of the run's crew, which runs every split pass (node ranges, per-block matchings, refinement pairs); 0 = GOMAXPROCS, larger values count as GOMAXPROCS, 1 = serial. Partitions are byte-identical for every value")
		cpuProf = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf = flag.String("memprofile", "", "write a pprof heap profile (after the run, post-GC) to this file")
	)
	var rf runFlags
	rf.register(flag.CommandLine)
	var ob obsFlags
	ob.register(flag.CommandLine)
	flag.Parse()

	if *cpuProf != "" || *memProf != "" {
		var cpuFile *os.File
		if *cpuProf != "" {
			f, err := os.Create(*cpuProf)
			if err != nil {
				fail(err)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				fail(err)
			}
			cpuFile = f
		}
		memPath := *memProf
		done := false
		stopProfiles = func() {
			if done {
				return
			}
			done = true
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			if memPath != "" {
				f, err := os.Create(memPath)
				if err != nil {
					fmt.Fprintln(os.Stderr, "kappa:", err)
					return
				}
				defer f.Close()
				runtime.GC() // report live allocations, not garbage
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintln(os.Stderr, "kappa:", err)
				}
			}
		}
		defer stopProfiles()
	}

	cfg, err := rf.config(*workers, *coarsFl)
	if err != nil {
		fail(err)
	}
	g, err := loadGraph(rf.in, rf.gen)
	if err != nil {
		fail(err)
	}

	// SIGINT/SIGTERM cancel the run context: the pipeline unwinds between
	// kernels, profiles flush, and the process exits 1 — instead of dying
	// mid-write with a truncated -out file or an empty CPU profile.
	ctx, cancel := runContext(rf.timeout)
	defer cancel()
	runObs, opts, err := rf.options(&ob, g, cfg)
	if err != nil {
		fail(err)
	}

	if *eval != "" {
		blocks, err := graphio.ReadPartitionFile(*eval, g.NumNodes(), rf.k)
		if err != nil {
			fail(err)
		}
		w := ob.summaryWriter()
		cut, bal, feasible := evalBlocks(g, rf.k, rf.eps, blocks)
		fmt.Fprintf(w, "input partition: cut=%d balance=%.4f feasible=%v\n", cut, bal, feasible)
		refined, rcut, err := core.RefineExistingCtx(ctx, g, cfg, blocks, opts...)
		if err != nil {
			fail(err)
		}
		_, rbal, rfeasible := evalBlocks(g, rf.k, rf.eps, refined)
		if err := runObs.finish(core.Result{Blocks: refined, Cut: rcut, Balance: rbal}); err != nil {
			fail(err)
		}
		fmt.Fprintf(w, "after refining:  cut=%d balance=%.4f feasible=%v\n", rcut, rbal, rfeasible)
		if rf.out != "" {
			if err := os.WriteFile(rf.out, graphio.AppendPartition(nil, refined), 0o666); err != nil {
				fail(err)
			}
		}
		return
	}

	res, err := core.Run(ctx, g, cfg, opts...)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fail(fmt.Errorf("run exceeded -timeout %v: %v", rf.timeout, err))
		}
		if errors.Is(err, context.Canceled) && ctx.Err() != nil {
			fail(fmt.Errorf("interrupted: %v", err))
		}
		fail(err)
	}
	if err := runObs.finish(res); err != nil {
		fail(err)
	}
	if err := rf.printSummary(ob.summaryWriter(), g, cfg, res, fmt.Sprintf("coarsen=%s", cfg.Coarsen)); err != nil {
		fail(err)
	}
}

func evalBlocks(g *graph.Graph, k int, eps float64, blocks []int32) (int64, float64, bool) {
	p := part.FromBlocks(g, k, eps, blocks)
	return p.Cut(), p.Imbalance(), p.Feasible()
}

// loadGraph resolves the input: usage errors (bad generator spec, neither
// -in nor -gen) wrap ErrInvalidConfig so they exit 2; I/O errors (missing
// or unreadable file) stay runtime errors and exit 1.
func loadGraph(inFile, genSpec string) (*graph.Graph, error) {
	switch {
	case inFile != "":
		// Format is sniffed from the content, so -in takes METIS text and
		// binary .bgraph files alike.
		return graphio.ReadFile(inFile)
	case genSpec != "":
		// The validated spec parser is shared with the service layer, so CLI
		// and API jobs accept exactly the same generator vocabulary.
		g, err := gen.FromSpec(genSpec)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", core.ErrInvalidConfig, err)
		}
		return g, nil
	default:
		return nil, fmt.Errorf("%w: need -in or -gen", core.ErrInvalidConfig)
	}
}
