package core

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/mem"
	"repro/internal/wire"
)

// BenchmarkDistributedLevel times the glue of one distributed contraction
// level as the socket backend runs it, in one process: extract the shards of
// rgg:15 for 2 PEs, then per PE encode the job, decode it, run PELevel (match,
// vote, contract), encode the result and decode it, and stitch the two parts
// (StitchLevel) — every seam of coordinator.remoteLevel and the worker's
// runLevel except the socket itself. An untimed first level warms the per-PE
// arenas and the edge pool, so allocs/op is what every level but a run's
// first sees.
func BenchmarkDistributedLevel(b *testing.B) {
	const pes = 2
	g := gen.RGG(15, 1)
	cfg := NewConfig(Fast, 4)
	cfg.Seed = 1
	blocks := dist.Assign(g, cfg.Distribution, pes)
	assign := wire.Assign{Rating: int(cfg.Rating), Matcher: int(cfg.Matcher), Boundary: cfg.GapMatching}
	scratch := []*mem.Arena{mem.NewArena(), mem.NewArena()}
	level := func() {
		sgs := dist.ExtractAll(g, blocks, pes)
		ex := dist.NewExchanger(pes)
		results := make([]wire.Result, pes)
		var wg sync.WaitGroup
		for pe := range sgs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				payload := wire.AppendJob(nil, wire.Job{Seed: cfg.Seed, Shard: sgs[pe]})
				job, err := wire.DecodeJob(payload)
				if err != nil {
					b.Error(err)
				}
				res, err := wire.DecodeResult(wire.AppendResult(nil, PELevel(ex, assign, job, scratch[pe])))
				if err != nil {
					b.Error(err)
				}
				results[pe] = res
			}()
		}
		wg.Wait()
		if cg, _, _, _, err := StitchLevel(nil, g, results); err != nil || cg.NumNodes() >= g.NumNodes() {
			b.Fatalf("level did not shrink the graph (%v)", err)
		}
	}
	level()
	// The timed iteration starts from a collected heap, so the collector's
	// own allocations within it (the cleanups after each cycle) repeat.
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		level()
	}
}
