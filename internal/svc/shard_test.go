package svc

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/store"
)

// writeJobStore generates a graph and shards it into dir, returning the
// graph for reference runs.
func writeJobStore(t *testing.T, dir string, pes int, strategy dist.Strategy) *graph.Graph {
	t.Helper()
	g, err := gen.FromSpec("rgg:8")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Write(dir, g, store.WriteOptions{PEs: pes, Strategy: strategy}); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestShardDirJobMatchesDirectRun pins the out-of-core job contract: a job
// whose input is a shard store (confined under GraphDir) adopts the
// manifest's shard count and distribution, runs over the memory-mapped CSR
// segment, and produces the partition byte-identical to the direct run over
// the same graph at the same configuration.
func TestShardDirJobMatchesDirectRun(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline run")
	}
	rcb, err := dist.ParseStrategy("rcb")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	g := writeJobStore(t, filepath.Join(dir, "g.kst"), 2, rcb)

	cfg := core.NewConfig(core.Fast, 4)
	cfg.Seed = 7
	cfg.PEs = 2
	cfg.Distribution = rcb
	cfg.Coarsen = core.CoarsenDistributed
	want, err := core.Run(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}

	s, h := newTestServer(t, Options{Concurrency: 1, Queue: 2, GraphDir: dir})
	rr := submitJob(t, h, `{"shard_dir":"g.kst","k":4,"seed":7,"coarsen":"distributed"}`)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rr.Code, rr.Body.String())
	}
	st := waitTerminal(t, s, decodeStatus(t, rr).ID)
	if st.State != StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}
	if st.Cut != want.Cut {
		t.Fatalf("cut %d, direct run %d", st.Cut, want.Cut)
	}
	got := httptest.NewRecorder()
	h.ServeHTTP(got, httptest.NewRequest("GET", st.Partition, nil))
	if !bytes.Equal(got.Body.Bytes(), graphio.AppendPartition(nil, want.Blocks)) {
		t.Fatal("shard_dir job partition differs from the direct run")
	}
}

// TestShardDirJobRejections pins the submit-time diagnostics: a pes or dist
// conflicting with the manifest, a second graph source, and a path escaping
// the graph directory are all 400s that never admit a job.
func TestShardDirJobRejections(t *testing.T) {
	rcb, err := dist.ParseStrategy("rcb")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writeJobStore(t, filepath.Join(dir, "g.kst"), 2, rcb)
	_, h := newTestServer(t, Options{Concurrency: 1, Queue: 2, GraphDir: dir})

	for name, spec := range map[string]string{
		"pes conflict":  `{"shard_dir":"g.kst","k":4,"pes":3}`,
		"dist conflict": `{"shard_dir":"g.kst","k":4,"dist":"ranges"}`,
		"second source": `{"shard_dir":"g.kst","gen":"grid:4x4","k":4}`,
		"path escape":   `{"shard_dir":"../g.kst","k":4}`,
		"absolute path": `{"shard_dir":"/etc","k":4}`,
		"missing store": `{"shard_dir":"nope.kst","k":4}`,
		"not a store":   `{"shard_dir":".","k":4}`,
		"zero sources":  `{"k":4}`,
	} {
		rr := submitJob(t, h, spec)
		if rr.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, rr.Code, rr.Body.String())
		}
	}
}
