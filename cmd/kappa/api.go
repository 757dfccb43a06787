package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/graphio"
	"repro/internal/obs"
	"repro/internal/svc"
)

// runAPI is the `kappa api` subcommand — kappad, the partitioner as a
// service. It exposes submit/poll/result/cancel over HTTP/JSON with the
// hardening a long-running daemon needs: a bounded job queue with admission
// control (429 + Retry-After when full), per-job deadlines, panic isolation,
// and a graceful SIGTERM/SIGINT drain. Exit is 0 after a clean drain, 1 when
// the drain grace expired or a second signal forced shutdown, 2 on bad
// flags.
func runAPI(args []string) {
	fs := flag.NewFlagSet("kappa api", flag.ExitOnError)
	var (
		listen  = fs.String("listen", "127.0.0.1:2188", "address to serve the HTTP API on (host:port; port 0 picks a free port)")
		queue   = fs.Int("queue", 64, "job queue depth; submissions beyond it get 429")
		jobs    = fs.Int("jobs", 0, "jobs partitioning concurrently; 0 = GOMAXPROCS")
		defTO   = fs.Duration("default-timeout", 0, "deadline for jobs that request none; 0 = unlimited")
		maxTO   = fs.Duration("max-timeout", 0, "cap on the deadline a job may request; 0 = uncapped")
		maxBody = fs.Int64("max-body", 64<<20,
			"largest accepted submit request body in bytes (bounds inline graphs)")
		graphDir = fs.String("graph-dir", "",
			"confine graph_file loads to this directory; empty = any server-readable path")
		drainGrace = fs.Duration("drain-grace", 30*time.Second,
			"on SIGTERM/SIGINT, wait this long for queued and running jobs before deadline-canceling them")
		retryAfter = fs.Duration("retry-after", time.Second, "Retry-After hint sent with 429/503 rejections")
		retain     = fs.Int("retain", 1024, "finished jobs kept for status/result polling")
		maxNodes   = fs.Uint64("max-graph-nodes", 0,
			"decode budget: largest node count accepted from graph files; 0 = built-in default")
		maxEdges = fs.Uint64("max-graph-edges", 0,
			"decode budget: largest edge count accepted from graph files; 0 = built-in default")
	)
	fs.Parse(args)
	if *maxNodes != 0 || *maxEdges != 0 {
		graphio.SetDecodeBudget(*maxNodes, *maxEdges)
	}

	reg := obs.NewRegistry()
	server := svc.New(svc.Options{
		Queue:          *queue,
		Concurrency:    *jobs,
		DefaultTimeout: *defTO,
		MaxTimeout:     *maxTO,
		MaxBody:        *maxBody,
		GraphDir:       *graphDir,
		RetryAfter:     *retryAfter,
		Retain:         *retain,
		Registry:       reg,
	})

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fail(err)
	}
	httpSrv := obs.NewServer(server.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	jobsN := *jobs
	if jobsN == 0 {
		jobsN = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(os.Stderr, "kappa: api serving on %s (queue %d, jobs %d)\n", ln.Addr(), *queue, jobsN)

	sigCtx, stop := runContext(0)
	defer stop()
	select {
	case err := <-serveErr:
		// The listener died under us — nothing to drain into.
		server.Close()
		fail(err)
	case <-sigCtx.Done():
	}
	// Drain: stop admitting (readyz flips to 503 for load balancers), finish
	// the in-flight jobs within the grace, then stop the HTTP server. stop()
	// restores default signal handling first, so a second SIGTERM/SIGINT
	// kills the process immediately instead of being swallowed.
	stop()
	fmt.Fprintf(os.Stderr, "kappa: api draining (grace %v)\n", *drainGrace)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	drainErr := server.Drain(drainCtx)
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		httpSrv.Close()
	}
	if drainErr != nil && !errors.Is(drainErr, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "kappa: api drain grace expired, in-flight jobs canceled\n")
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "kappa: api drained cleanly")
}
