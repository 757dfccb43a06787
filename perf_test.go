package repro

import (
	"bytes"
	"context"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"repro/internal/coarsen"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/internal/matching"
	"repro/internal/rating"
	"repro/internal/wire"
)

// perfFamilies is one instance per generator family, sized so the full
// matrix stays fast.
func perfFamilies() map[string]*Graph {
	return map[string]*Graph{
		"rgg":      RGG(11, 21),
		"delaunay": DelaunayX(11, 22),
		"grid3d":   Grid3D(9, 9, 9),
		"road":     Road(3000, 5, 23),
		"social":   PrefAttach(3000, 5, 24),
		"banded":   Banded(2500, 8, 20, 0.6, 25),
	}
}

// TestRunArenaReuseByteIdentical is the scratch-reuse pin: running twice on
// the same arena, and once without any arena, must produce byte-identical
// blocks for a fixed seed, across generator families and both coarsening
// modes. A buffer leaking state between runs would show up here.
func TestRunArenaReuseByteIdentical(t *testing.T) {
	for name, g := range perfFamilies() {
		for _, mode := range []CoarsenMode{CoarsenShared, CoarsenDistributed} {
			cfg := NewConfig(Fast, 8)
			cfg.Seed = 1217
			cfg.Coarsen = mode
			fresh, err := Run(context.Background(), g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			arena := NewArena()
			first, err := Run(context.Background(), g, cfg, WithArena(arena))
			if err != nil {
				t.Fatal(err)
			}
			second, err := Run(context.Background(), g, cfg, WithArena(arena))
			if err != nil {
				t.Fatal(err)
			}
			if st := arena.Stats(); st.Borrows == 0 || st.Reused == 0 {
				t.Fatalf("%s/%s: arena not exercised (gets=%d reused=%d)", name, mode, st.Borrows, st.Reused)
			}
			for v := range fresh.Blocks {
				if first.Blocks[v] != fresh.Blocks[v] || second.Blocks[v] != fresh.Blocks[v] {
					t.Fatalf("%s/%s: blocks diverge at node %d between fresh/first/second arena runs", name, mode, v)
				}
			}
			if first.Cut != fresh.Cut || second.Cut != fresh.Cut {
				t.Fatalf("%s/%s: cut diverges", name, mode)
			}
		}
	}
}

// TestRunWorkersByteIdentical pins that the Workers knob trades cores for
// wall-clock only: any worker count must reproduce the serial result
// byte-identically — the contraction kernels' goroutines and the refinement
// crew alike, on every generator family, and on one mesh and one power-law
// instance at k=16 (classes of up to eight pairs) for every crew shape on one
// processor and on two.
func TestRunWorkersByteIdentical(t *testing.T) {
	check := func(name string, g *Graph, k int) {
		cfg := NewConfig(Fast, k)
		cfg.Seed = 7
		cfg.Workers = 1
		serial, err := Run(context.Background(), g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			cfg.Workers = workers
			got, err := Run(context.Background(), g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Blocks, serial.Blocks) {
				t.Fatalf("%s k=%d GOMAXPROCS=%d: Workers=%d diverges from Workers=1", name, k, runtime.GOMAXPROCS(0), workers)
			}
		}
	}
	families := perfFamilies()
	for name, g := range families {
		check(name, g, 8)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		check("rgg", families["rgg"], 16)
		check("social", families["social"], 16)
	}
}

// TestRunAboveParallelFloorsByteIdentical partitions rgg:15 at k=16, large
// enough that its finest levels clear the floors of every pass that splits a
// level across goroutines — RCB's halves, the gap scan, the contraction's
// numbering, count and fill, the boundary scan — on one processor and on two:
// both must give the partition the serial passes give, pinned by its hash
// (the golden table's instances all stay under the floors).
func TestRunAboveParallelFloorsByteIdentical(t *testing.T) {
	g := RGG(15, 1)
	cfg := NewConfig(Fast, 16)
	cfg.Seed = 7
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		res, err := Run(context.Background(), g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got goldenRow
		got.record(res.Blocks, res.Cut, res.Balance)
		if got.cut != 2118 || got.balance != "1.030273" || got.hash != "bddc87e3961741fd" {
			t.Fatalf("GOMAXPROCS=%d: cut %d, balance %s, hash %s; want 2118, 1.030273, bddc87e3961741fd", procs, got.cut, got.balance, got.hash)
		}
	}
}

// TestRunSharedArenaConcurrent runs several partitions concurrently on ONE
// shared arena; under -race this doubles as the data-race check for the
// arena itself, and the results must match isolated runs.
func TestRunSharedArenaConcurrent(t *testing.T) {
	g := RGG(11, 33)
	cfg := NewConfig(Fast, 8)
	cfg.Seed = 99
	cfg.Workers = 4
	want, err := Run(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	arena := NewArena()
	const runs = 4
	results := make([]Result, runs)
	errs := make([]error, runs)
	done := make(chan int, runs)
	for i := 0; i < runs; i++ {
		go func(i int) {
			results[i], errs[i] = Run(context.Background(), g, cfg, WithArena(arena))
			done <- i
		}(i)
	}
	for i := 0; i < runs; i++ {
		<-done
	}
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for v := range want.Blocks {
			if results[i].Blocks[v] != want.Blocks[v] {
				t.Fatalf("concurrent run %d diverges at node %d", i, v)
			}
		}
	}
}

// levelZero runs contraction level 0 of g over two PEs the way the socket
// backend does — extract, match, contract per PE — and returns what crosses
// the wire: the shards going out and the contraction parts coming back.
func levelZero(g *Graph) ([]*dist.Subgraph, []*coarsen.PEContraction) {
	const pes = 2
	sgs := dist.ExtractAll(g, dist.Assign(g, dist.StrategyAuto, pes), pes)
	ex := dist.NewExchanger(pes)
	ms := matching.DistributedBounded(sgs, ex, rating.ExpansionStar2, matching.GPA, 1, 0, true)
	parts := make([]*coarsen.PEContraction, pes)
	var wg sync.WaitGroup
	for pe := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[pe] = coarsen.ContractSubgraph(sgs[pe], ms[pe], ex, pe)
		}()
	}
	wg.Wait()
	return sgs, parts
}

// BenchmarkStitch is the coordinator's one kernel between two levels: the
// level contracted by the map the parts of a real level 0 fill, on as many
// goroutines as GOMAXPROCS allows (one under the allocation gate, where its
// allocations are a fixed handful).
func BenchmarkStitch(b *testing.B) {
	for _, tc := range []struct {
		name string
		g    *Graph
	}{{"rgg15", gen.RGG(15, 1)}, {"rmat12", gen.RMAT(12, 8, 1)}} {
		g := tc.g
		_, parts := levelZero(g)
		b.Run(tc.name, func(b *testing.B) {
			// An op allocates about as much as the level it stitches holds,
			// so a collection may or may not start inside it, depending on
			// what ran before, and add the runtime's own allocations to
			// allocs/op. The collections run between the ops instead.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC()
				b.StartTimer()
				if cg, _ := coarsen.Stitch(g, parts); cg.NumNodes() >= g.NumNodes() {
					b.Fatalf("level did not shrink the graph: %d nodes", cg.NumNodes())
				}
			}
		})
	}
}

// BenchmarkDecodeSubgraph decodes one PE's level-0 shard of rgg15, what a
// worker does with every job frame; MB/s is of encoded bytes.
func BenchmarkDecodeSubgraph(b *testing.B) {
	sgs, _ := levelZero(gen.RGG(15, 1))
	enc, err := wire.AppendSubgraph(nil, sgs[0])
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := wire.DecodeSubgraph(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeContraction decodes one PE's level-0 contraction of rgg15 —
// its share of the fine→coarse map — what the coordinator does with every
// result frame.
func BenchmarkDecodeContraction(b *testing.B) {
	_, parts := levelZero(gen.RGG(15, 1))
	enc := wire.AppendContraction(nil, parts[0])
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := wire.DecodeContraction(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadBinary streams the binary encoding of rgg15 through the
// io.Reader source of the graph decoder, the path a graph file takes.
func BenchmarkReadBinary(b *testing.B) {
	var bin bytes.Buffer
	if err := graphio.WriteBinary(&bin, gen.RGG(15, 1)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(bin.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graphio.ReadBinary(bytes.NewReader(bin.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
