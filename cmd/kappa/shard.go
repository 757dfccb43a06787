package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/store"
)

// runShard is the `kappa shard` subcommand: it partitions a graph's nodes
// across PEs with a distribution strategy and writes an on-disk shard store —
// one wire-encoded subgraph file per PE, a fixed-layout CSR segment, and a
// manifest — that `kappa serve -shards` later streams without ever holding
// the global adjacency on the coordinator's heap.
func runShard(args []string) {
	fs := flag.NewFlagSet("kappa shard", flag.ExitOnError)
	var (
		pes     = fs.Int("pe", 0, "number of shards (one per worker PE); required")
		outDir  = fs.String("o", "", "output store directory (created if missing); required")
		workers = fs.Int("workers", 0, "goroutines writing shards concurrently; 0 = GOMAXPROCS")
	)
	var rf runFlags
	rf.registerInput(fs)
	fs.Lookup("seed").Usage = "run seed recorded in the manifest (provenance only)"
	fs.Parse(args)

	if *outDir == "" {
		fail(fmt.Errorf("%w: need -o (output store directory)", core.ErrInvalidConfig))
	}
	if *pes < 1 {
		fail(fmt.Errorf("%w: need -pe >= 1 (one shard per worker PE)", core.ErrInvalidConfig))
	}
	strategy, err := dist.ParseStrategy(rf.dist)
	if err != nil {
		fail(fmt.Errorf("%w: %v", core.ErrInvalidConfig, err))
	}
	g, err := loadGraph(rf.in, rf.gen)
	if err != nil {
		fail(err)
	}

	m, err := store.Write(*outDir, g, store.WriteOptions{
		PEs:      *pes,
		Strategy: strategy,
		Workers:  *workers,
		Seed:     rf.seed,
	})
	if err != nil {
		fail(err)
	}

	var shardBytes int64
	for i := range m.Shards {
		shardBytes += m.Shards[i].Bytes
	}
	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(os.Stdout, "graph     n=%d m=%d\n", m.Nodes, m.Edges)
	fmt.Fprintf(os.Stdout, "store     %s (%d shards, dist=%s, %d writers)\n", *outDir, m.PEs, m.Strategy, w)
	fmt.Fprintf(os.Stdout, "bytes     shards %d, csr %d\n", shardBytes, m.CSR.Bytes)
	fmt.Fprintf(os.Stdout, "serve     kappa serve -shards %s -k <k> -seed <seed>\n", *outDir)
}
