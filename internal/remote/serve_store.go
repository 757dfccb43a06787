package remote

import (
	"context"
	"fmt"
	"net"

	"repro/internal/core"
	"repro/internal/graph"
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
// The manifest is authoritative for the run's shape: cfg adopts its shard
// count and extraction strategy (core.Config.AdoptStore), and a cfg that
// explicitly disagrees is rejected as invalid configuration.
func ServeStore(ctx context.Context, ln net.Listener, st *store.Store, cfg core.Config, so ServeOptions, opts ...core.Option) (core.Result, error) {
	m := st.Manifest()
	if err := cfg.AdoptStore(m.PEs, m.Strategy); err != nil {
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
	// Level 0 needs no node-to-PE assignment — the stored shards embody it —
	// so the distributor skips the O(n) computation exactly when remoteLevel
	// skips the O(n) extraction. The coordinator's level kernel assigns the
	// coarse levels itself, on the run's crew.
	opts = append(opts, core.WithDistributor(storeDistributor{}))
	return co.serve(ctx, mg.G, cfg, opts...)
}

// storeDistributor leaves every level's node-to-PE assignment to the
// coordinator's level kernel: level 0's lives in the shard files, and the
// kernel computes the others on the run's crew, which a Distributor does not
// see.
type storeDistributor struct{}

func (storeDistributor) Distribute(ctx context.Context, _ *graph.Graph, _ *core.Config, _ int) ([]int32, error) {
	return nil, ctx.Err()
}
