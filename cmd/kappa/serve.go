package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/graphio"
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
		shards   = fs.String("shards", "", "serve from an on-disk shard store directory (kappa shard output); the coordinator streams shard files and never materializes the global adjacency")
		listen   = fs.String("listen", "127.0.0.1:2177", "address to accept workers on (host:port, or a path with -network unix)")
		network  = fs.String("network", "tcp", "listener network: tcp | unix")
		wtimeout = fs.Duration("worker-timeout", 0,
			"declare a worker dead when it is silent for this long (bounds every control and transport frame); 0 = wait forever")
		hbeat = fs.Duration("heartbeat", 0,
			"interval of coordinator heartbeats that keep workers alive during local phases; 0 = none")
		maxFrame = fs.Uint64("max-frame", 0,
			"decode budget: largest control-frame payload accepted from workers, in bytes; 0 = built-in default")
	)
	var rf runFlags
	rf.register(fs)
	fs.Lookup("pes").Usage = "number of worker processes to wait for (default: k)"
	var ob obsFlags
	ob.register(fs)
	fs.Parse(args)
	if *maxFrame != 0 {
		wire.SetMaxFrame(*maxFrame)
	}

	cfg, err := rf.config(0, "distributed")
	if err != nil {
		fail(err)
	}

	// Input: a graph (-in/-gen) the coordinator holds in memory, or a shard
	// store (-shards) it streams from disk. With -shards the graph variable
	// is a memory-mapped view of the store's CSR segment — observability and
	// the summary read through it at O(1) heap cost.
	var g *graph.Graph
	var st *store.Store
	switch {
	case *shards != "":
		if rf.in != "" || rf.gen != "" {
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
		g, err = loadGraph(rf.in, rf.gen)
		if err != nil {
			fail(err)
		}
	}

	// Cancelling the coordination context closes the workers' connections.
	ctx, cancel := runContext(rf.timeout)
	defer cancel()
	runObs, opts, err := rf.options(&ob, g, cfg)
	if err != nil {
		fail(err)
	}

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
	var extra []string
	snap := counters.Snapshot()
	if st != nil {
		extra = append(extra, fmt.Sprintf("store     %s (%d shards streamed, global CSR memory-mapped)", *shards, snap.ShardsStreamed))
	}
	extra = append(extra, fmt.Sprintf("folded    %d levels (too small to ship, run on the coordinator)", snap.FoldedLevels))
	if snap.WorkerFailures+snap.Reassignments+snap.LocalFallbacks+snap.LevelRetries > 0 {
		extra = append(extra, fmt.Sprintf("faults    workers_failed=%d reassigned=%d level_retries=%d local_fallbacks=%d",
			snap.WorkerFailures, snap.Reassignments, snap.LevelRetries, snap.LocalFallbacks))
	}
	if err := rf.printSummary(ob.summaryWriter(), g, cfg, res, fmt.Sprintf("pes=%d workers", cfg.NumPEs()), extra...); err != nil {
		fail(err)
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

	// Cancelling the worker context aborts the in-flight superstep and
	// closes the connection.
	ctx, cancel := runContext(*timeout)
	defer cancel()
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
	fmt.Fprintf(os.Stderr, "kappa: worker PE %d done after running %d levels\n", wr.PE, wr.Levels)
	if *outFile != "" && wr.Partition != nil {
		if err := os.WriteFile(*outFile, graphio.AppendPartition(nil, wr.Partition), 0o666); err != nil {
			fail(err)
		}
	}
}
