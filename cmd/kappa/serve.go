package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/remote"
	"repro/internal/store"
	"repro/internal/wire"
)

// runServe is the `kappa serve` subcommand: the coordinator of the
// out-of-process backend. It loads (or generates) the graph, listens for
// -pes worker processes, distributes the contraction phase across them, and
// runs initial partitioning and refinement locally — the paper's
// one-process-per-PE model over sockets. Results are byte-identical to the
// in-process `kappa -coarsen distributed` run at the same seed.
func runServe(args []string) {
	fs := flag.NewFlagSet("kappa serve", flag.ExitOnError)
	var (
		inFile   = fs.String("in", "", "input graph file (METIS or binary; format sniffed)")
		genSpec  = fs.String("gen", "", "generator spec (see kappa -gen)")
		shards   = fs.String("shards", "", "serve from an on-disk shard store directory (kappa shard output); the coordinator streams shard files and never materializes the global adjacency")
		k        = fs.Int("k", 2, "number of blocks")
		preset   = fs.String("preset", "fast", "minimal | fast | strong")
		eps      = fs.Float64("eps", 0.03, "allowed imbalance")
		seed     = fs.Uint64("seed", 0, "random seed")
		pes      = fs.Int("pes", 0, "number of worker processes to wait for (default: k)")
		distFl   = fs.String("dist", "auto", "node-to-PE distribution: auto | ranges | rcb | sfc")
		listen   = fs.String("listen", "127.0.0.1:2177", "address to accept workers on (host:port, or a path with -network unix)")
		network  = fs.String("network", "tcp", "listener network: tcp | unix")
		outFile  = fs.String("out", "", "write the block of each node, one per line")
		progress = fs.Bool("progress", false, "print pipeline trace events to stderr")
		timeout  = fs.Duration("timeout", 0, "abort the run after this duration; 0 = no limit")
		wtimeout = fs.Duration("worker-timeout", 0,
			"declare a worker dead when it is silent for this long (bounds every control and transport frame); 0 = wait forever")
		hbeat = fs.Duration("heartbeat", 0,
			"interval of coordinator heartbeats that keep workers alive during local phases; 0 = none")
		maxFrame = fs.Uint64("max-frame", 0,
			"decode budget: largest control-frame payload accepted from workers, in bytes; 0 = built-in default")
	)
	var ob obsFlags
	ob.register(fs)
	fs.Parse(args)
	if *maxFrame != 0 {
		wire.SetMaxFrame(*maxFrame)
	}

	cfg, err := core.ConfigFromNames(*preset, *k, *eps, *seed, *pes, 0, *distFl, "distributed")
	if err != nil {
		fail(err)
	}
	variant, _ := core.ParseVariant(*preset) // the name ConfigFromNames just accepted

	// Input: a graph (-in/-gen) the coordinator holds in memory, or a shard
	// store (-shards) it streams from disk. With -shards the graph variable
	// is a memory-mapped view of the store's CSR segment — observability and
	// the summary read through it at O(1) heap cost.
	var g *graph.Graph
	var st *store.Store
	switch {
	case *shards != "":
		if *inFile != "" || *genSpec != "" {
			fail(fmt.Errorf("%w: -shards replaces -in/-gen (the store IS the graph)", core.ErrInvalidConfig))
		}
		st, err = store.Open(*shards)
		if err != nil {
			fail(err)
		}
		// Adopt the manifest's shape before anything sizes itself off cfg
		// (transport stats, the handshake's worker count, the report). A
		// conflicting -pes or -dist fails here rather than mid-handshake.
		m := st.Manifest()
		if err := cfg.AdoptStore(m.PEs, m.Strategy); err != nil {
			fail(err)
		}
		mg, err := st.MapGraph()
		if err != nil {
			fail(err)
		}
		defer mg.Close()
		g = mg.G
	default:
		g, err = loadGraph(*inFile, *genSpec)
		if err != nil {
			fail(err)
		}
	}

	// SIGINT/SIGTERM cancel the coordination context: workers see the
	// connection close, cleanup runs, and the process exits 1.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var opts []core.Option
	if *progress {
		opts = append(opts, progressOption())
	}
	runObs, obsOpts, err := ob.setup(g, cfg)
	if err != nil {
		fail(err)
	}
	opts = append(opts, obsOpts...)

	ln, err := net.Listen(*network, *listen)
	if err != nil {
		fail(err)
	}
	defer ln.Close()
	fmt.Fprintf(os.Stderr, "kappa: serving on %s, waiting for %d workers\n", ln.Addr(), cfg.NumPEs())

	counters := &remote.Counters{}
	runObs.bindRemote(counters)
	so := remote.ServeOptions{
		Stats:         runObs.transportStats(),
		WorkerTimeout: *wtimeout,
		Heartbeat:     *hbeat,
		Counters:      counters,
	}
	var res core.Result
	if st != nil {
		res, err = remote.ServeStore(ctx, ln, st, cfg, so, opts...)
	} else {
		res, err = remote.ServeWith(ctx, ln, g, cfg, so, opts...)
	}
	if err != nil {
		fail(err)
	}
	if err := runObs.finish(res); err != nil {
		fail(err)
	}
	p := part.FromBlocks(g, *k, *eps, res.Blocks)
	sum := ob.summaryWriter()
	fmt.Fprintf(sum, "graph     n=%d m=%d\n", g.NumNodes(), g.NumEdges())
	fmt.Fprintf(sum, "preset    %s (k=%d, eps=%.2f, dist=%s, pes=%d workers)\n", variant, *k, *eps, cfg.Distribution, cfg.NumPEs())
	if st != nil {
		fmt.Fprintf(sum, "store     %s (%d shards streamed, global CSR memory-mapped)\n", *shards, counters.Snapshot().ShardsStreamed)
	}
	if s := counters.Snapshot(); s.WorkerFailures+s.Reassignments+s.LocalFallbacks+s.LevelRetries > 0 {
		fmt.Fprintf(sum, "faults    workers_failed=%d reassigned=%d level_retries=%d local_fallbacks=%d\n",
			s.WorkerFailures, s.Reassignments, s.LevelRetries, s.LocalFallbacks)
	}
	fmt.Fprintf(sum, "cut       %d\n", res.Cut)
	fmt.Fprintf(sum, "balance   %.4f (Lmax %d, feasible %v)\n", res.Balance, p.Lmax(), p.Feasible())
	fmt.Fprintf(sum, "levels    %d\n", res.Levels)
	fmt.Fprintf(sum, "time      total %v (coarsen %v, init %v, refine %v)\n",
		res.TotalTime.Round(1e6), res.CoarsenTime.Round(1e6), res.InitTime.Round(1e6), res.RefineTime.Round(1e6))
	if *outFile != "" {
		writePartition(*outFile, res.Blocks)
		fmt.Fprintf(sum, "partition written to %s\n", *outFile)
	}
}

// runWorker is the `kappa worker` subcommand: one processing element of the
// out-of-process backend. It connects to a coordinator, receives its PE
// assignment and per-level subgraph shards, and runs the PE-local
// matching/contraction kernels over the socket transport.
func runWorker(args []string) {
	fs := flag.NewFlagSet("kappa worker", flag.ExitOnError)
	var (
		connect = fs.String("connect", "127.0.0.1:2177", "coordinator address")
		network = fs.String("network", "tcp", "coordinator network: tcp | unix")
		outFile = fs.String("out", "", "write the final partition broadcast by the coordinator, one block per line")
		timeout = fs.Duration("timeout", 0, "give up after this duration; 0 = no limit")
		retry   = fs.Int("retry", 1, "connection attempts before giving up (handshake retries with backoff)")
		backoff = fs.Duration("backoff", 200*time.Millisecond,
			"base delay between connection attempts (exponential with jitter, capped at 16x)")
		dialTO = fs.Duration("dial-timeout", 0, "bound on each individual connection attempt; 0 = none")
		hbeat  = fs.Duration("heartbeat", 0,
			"interval of worker heartbeats that keep the coordinator's deadline refreshed; 0 = a quarter of the announced worker timeout")
		faultsFl = fs.String("faults", "",
			"fault-injection schedule for chaos testing, e.g. 'ctrl:read:3:kill;pe0:write:2:delay:50ms'")
		maxFrame = fs.Uint64("max-frame", 0,
			"decode budget: largest control-frame payload accepted from the coordinator, in bytes; 0 = built-in default")
	)
	fs.Parse(args)
	if *maxFrame != 0 {
		wire.SetMaxFrame(*maxFrame)
	}

	// SIGINT/SIGTERM cancel the worker context: the in-flight superstep
	// aborts, the connection closes, and the process exits 1.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	faults, err := dist.ParseFaultSchedule(*faultsFl)
	if err != nil {
		fail(fmt.Errorf("%w: %v", core.ErrInvalidConfig, err))
	}
	wo := remote.WorkOptions{
		Retry: remote.RetryPolicy{
			Attempts: *retry,
			Timeout:  *dialTO,
			Backoff:  *backoff,
			Seed:     uint64(os.Getpid()),
		},
		Heartbeat: *hbeat,
		Faults:    faults,
	}
	wr, err := remote.WorkWith(ctx, *network, *connect, wo)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "kappa: worker PE %d done after %d levels\n", wr.PE, wr.Levels)
	if *outFile != "" && wr.Partition != nil {
		writePartition(*outFile, wr.Partition)
	}
}
