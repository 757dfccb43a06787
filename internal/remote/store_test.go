package remote_test

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/remote"
	"repro/internal/store"
)

// writeTestStore shards g into a fresh directory and opens it.
func writeTestStore(t *testing.T, g *graph.Graph, pes int, strat dist.Strategy) *store.Store {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "g.kst")
	if _, err := store.Write(dir, g, store.WriteOptions{PEs: pes, Strategy: strat}); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// runServeStoreWorkers is runServeWorkers for the shard-store path.
func runServeStoreWorkers(t *testing.T, st *store.Store, cfg core.Config, so remote.ServeOptions, opts ...core.Option) (core.Result, []remote.WorkResult) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	pes := st.Manifest().PEs
	workers := make([]remote.WorkResult, pes)
	var wg sync.WaitGroup
	for i := 0; i < pes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wr, err := remote.Work(ctx, "tcp", addr)
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
				return
			}
			workers[i] = wr
		}(i)
	}
	res, err := remote.ServeStore(ctx, ln, st, cfg, so, opts...)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	return res, workers
}

// zeroedReport runs the pipeline runner with a report observer attached and
// returns the serialized time-zeroed report.
func zeroedReport(t *testing.T, g *graph.Graph, cfg core.Config,
	run func(opts ...core.Option) (core.Result, error)) []byte {
	t.Helper()
	rep := obs.NewReportObserver(g, cfg)
	res, err := run(core.WithObserver(rep))
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Finish(res, nil, nil)
	r.ZeroTimes()
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// recordedReport runs serve under an obs.Recorder on a fresh arena, as
// `kappa serve -report -report-zero` does, and returns the result and the
// time-zeroed report, its transport, arena and faults sections included.
func recordedReport(t *testing.T, g *graph.Graph, cfg core.Config,
	serve func(so remote.ServeOptions, opts ...core.Option) core.Result) (core.Result, []byte) {
	t.Helper()
	rec := obs.NewRecorder(g, cfg, mem.NewArena(), nil)
	rec.Faults = &remote.Counters{}
	res := serve(remote.ServeOptions{Stats: rec.Stats, Counters: rec.Faults}, rec.Options()...)
	r := rec.Finish(res)
	r.ZeroTimes()
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestServeStoreMatchesInMemory is the acceptance pin of the out-of-process
// path: serving from a shard directory produces the partition of the classic
// in-process run, and the partition AND the whole time-zeroed report — arena
// and transport sections included — of serving the in-memory graph, while
// the coordinator streams shard files instead of extracting level-0
// subgraphs.
func TestServeStoreMatchesInMemory(t *testing.T) {
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		pes   int
		k     int
		strat dist.Strategy
	}{
		{"rgg-2pe-rcb", gen.RGG(11, 3), 2, 8, dist.StrategyRCB},
		{"grid-3pe-auto", gen.Grid2D(40, 40), 3, 6, dist.StrategyAuto},
		{"grid3d-2pe-ranges", gen.Grid3D(12, 10, 8), 2, 4, dist.StrategyRanges},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.NewConfig(core.Fast, tc.k)
			cfg.Seed = 4242
			cfg.PEs = tc.pes
			cfg.Coarsen = core.CoarsenDistributed
			cfg.Distribution = tc.strat

			st := writeTestStore(t, tc.g, tc.pes, tc.strat)
			want, err := core.Run(context.Background(), tc.g, cfg)
			if err != nil {
				t.Fatal(err)
			}

			served, wantReport := recordedReport(t, tc.g, cfg, func(so remote.ServeOptions, opts ...core.Option) core.Result {
				res, _ := runServeWorkers(t, tc.g, cfg, so, opts...)
				return res
			})
			mg, err := st.MapGraph()
			if err != nil {
				t.Fatal(err)
			}
			defer mg.Close()
			var streamed int64
			got, gotReport := recordedReport(t, mg.G, cfg, func(so remote.ServeOptions, opts ...core.Option) core.Result {
				res, workers := runServeStoreWorkers(t, st, cfg, so, opts...)
				for i, wr := range workers {
					if !reflect.DeepEqual(wr.Partition, res.Blocks) {
						t.Errorf("worker %d received a different final partition", i)
					}
				}
				streamed = so.Counters.ShardsStreamed.Load()
				return res
			})

			for _, r := range []core.Result{served, got} {
				if r.Cut != want.Cut || !reflect.DeepEqual(r.Blocks, want.Blocks) {
					t.Fatalf("served partition diverged from the in-process run: cut %d vs %d", r.Cut, want.Cut)
				}
			}
			if !bytes.Equal(gotReport, wantReport) {
				t.Fatalf("shard-store report diverged:\n--- in-memory\n%s\n--- shard-store\n%s", wantReport, gotReport)
			}
			if streamed != int64(tc.pes) {
				t.Fatalf("ShardsStreamed = %d, want %d (level 0 must splice, never extract)", streamed, tc.pes)
			}
		})
	}
}

// TestServeRejectsOnePE: a one-PE serve would ship the distributed kernel
// where the in-process run matches with the sequential one, so both entry
// points refuse it as invalid configuration before awaiting any worker.
func TestServeRejectsOnePE(t *testing.T) {
	g := gen.RGG(9, 1)
	cfg := core.NewConfig(core.Fast, 4)
	cfg.PEs = 1
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := remote.ServeWith(context.Background(), ln, g, cfg, remote.ServeOptions{}); !errors.Is(err, core.ErrInvalidConfig) {
		t.Fatalf("ServeWith with one PE: got %v, want ErrInvalidConfig", err)
	}
	st := writeTestStore(t, g, 1, dist.StrategyRCB)
	if _, err := remote.ServeStore(context.Background(), ln, st, cfg, remote.ServeOptions{}); !errors.Is(err, core.ErrInvalidConfig) {
		t.Fatalf("ServeStore with one shard: got %v, want ErrInvalidConfig", err)
	}
}

// TestServeStoreReconcilesConfig pins the manifest-is-authoritative rules:
// zero PEs adopt the manifest's shard count, conflicts are rejected as
// invalid configuration before any worker is awaited.
func TestServeStoreReconcilesConfig(t *testing.T) {
	g := gen.RGG(9, 1)
	st := writeTestStore(t, g, 2, dist.StrategyRCB)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	cfg := core.NewConfig(core.Fast, 4)
	cfg.PEs = 3
	if _, err := remote.ServeStore(context.Background(), ln, st, cfg, remote.ServeOptions{}); !errors.Is(err, core.ErrInvalidConfig) {
		t.Fatalf("PE mismatch: got %v, want ErrInvalidConfig", err)
	}

	cfg = core.NewConfig(core.Fast, 4)
	cfg.Distribution = dist.StrategyRanges // store holds RCB shards
	if _, err := remote.ServeStore(context.Background(), ln, st, cfg, remote.ServeOptions{}); !errors.Is(err, core.ErrInvalidConfig) {
		t.Fatalf("strategy conflict: got %v, want ErrInvalidConfig", err)
	}
}

// TestServeStoreCorruptShard pins the failure contract for a store that rots
// after opening: the run fails with the shard's error instead of declaring
// innocent workers dead and retrying a read that cannot heal.
func TestServeStoreCorruptShard(t *testing.T) {
	g := gen.RGG(9, 1)
	st := writeTestStore(t, g, 2, dist.StrategyAuto)

	// Flip one byte mid-file; ShardBytes' checksum catches it at stream time.
	path := filepath.Join(st.Dir(), st.Manifest().Shards[1].File)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for i := 0; i < 2; i++ {
		go remote.Work(ctx, "tcp", ln.Addr().String())
	}
	var counters remote.Counters
	cfg := core.NewConfig(core.Fast, 4)
	cfg.Seed = 7
	_, err = remote.ServeStore(ctx, ln, st, cfg, remote.ServeOptions{Counters: &counters})
	if err == nil {
		t.Fatal("corrupt shard served without error")
	}
	var we *remote.WorkerError
	if errors.As(err, &we) {
		t.Fatalf("store corruption misattributed to a worker: %v", err)
	}
	if n := counters.WorkerFailures.Load(); n != 0 {
		t.Fatalf("store corruption killed %d workers", n)
	}
}

// TestServeStoreLocalFallback kills every worker of a store-served run on
// its first level result: the degraded in-process level extracts by the
// pipeline's level-0 assignment, which the spliced attempt left unused, and
// must still produce the byte-identical partition of the in-memory run.
func TestServeStoreLocalFallback(t *testing.T) {
	g := gen.RGG(11, 3)
	cfg := core.NewConfig(core.Fast, 8)
	cfg.Seed = 4242
	cfg.PEs = 2
	cfg.Coarsen = core.CoarsenDistributed
	cfg.Distribution = dist.StrategyRCB
	want, err := core.Run(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := writeTestStore(t, g, 2, dist.StrategyRCB)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		sched, err := dist.ParseFaultSchedule("ctrl:write:2:kill")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := remote.WorkWith(ctx, "tcp", ln.Addr().String(), remote.WorkOptions{Faults: sched}); err == nil {
				t.Errorf("worker %d survived its own kill schedule", i)
			}
		}(i)
	}
	var counters remote.Counters
	got, err := remote.ServeStore(ctx, ln, st, cfg, remote.ServeOptions{WorkerTimeout: 10 * time.Second, Counters: &counters})
	wg.Wait()
	if err != nil {
		t.Fatalf("ServeStore did not degrade to local execution: %v", err)
	}
	if got.Cut != want.Cut || !reflect.DeepEqual(got.Blocks, want.Blocks) {
		t.Fatalf("degraded store partition diverged from the in-memory run: cut %d vs %d", got.Cut, want.Cut)
	}
	s := counters.Snapshot()
	if s.LocalFallbacks != 1 {
		t.Errorf("LocalFallbacks = %d, want 1", s.LocalFallbacks)
	}
	if s.WorkerFailures != 2 {
		t.Errorf("WorkerFailures = %d, want 2", s.WorkerFailures)
	}
}
