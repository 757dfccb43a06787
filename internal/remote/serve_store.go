package remote

import (
	"context"
	"fmt"
	"net"

	"repro/internal/core"
	"repro/internal/store"
)

// ServeStore is ServeWith reading the graph from an on-disk shard store
// instead of an in-memory graph: the coordinator opens only the manifest and
// a memory-mapped view of the CSR segment, and at level 0 it streams each
// PE's stored shard file straight into that worker's job frame — the global
// adjacency is never materialized on the coordinator's heap. The result is
// byte-identical to ServeWith on the graph the store was written from (the
// shard files hold the exact bytes level-0 extraction would wire-encode, and
// the mapped CSR holds the exact values the in-memory graph holds).
//
// Every level takes the pipeline's node-to-PE assignment, as in ServeWith (a
// caller's core.WithDistributor included). Level 0 computes it but does not
// extract by it: its stored shards were extracted under the manifest's
// strategy, which the default assignment follows.
//
// The manifest is authoritative for the run's shape: cfg adopts its shard
// count and extraction strategy (core.Config.AdoptStore), and a cfg that
// explicitly disagrees is rejected as invalid configuration.
func ServeStore(ctx context.Context, ln net.Listener, st *store.Store, cfg core.Config, so ServeOptions, opts ...core.Option) (core.Result, error) {
	m := st.Manifest()
	if err := cfg.AdoptStore(m.PEs, m.Strategy, m.CoordDims > 0); err != nil {
		return core.Result{}, err
	}

	mg, err := st.MapGraph()
	if err != nil {
		return core.Result{}, fmt.Errorf("remote: mapping store graph: %w", err)
	}
	defer mg.Close()

	co := newCoordinator(m.PEs, ln, so)
	co.store = st
	co.fine = mg.G
	co.spliceSem = make(chan struct{}, 1)
	return co.serve(ctx, mg.G, cfg, opts...)
}
