package remote

import (
	"context"
	"net"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/mem"
	"repro/internal/par"
)

// BenchmarkRemoteLevel is the seam behind the fold floor: one contraction
// level of an rgg graph on two PEs, shipped to two workers over a
// unix-socket hub (socket) against core.DistributedLevel on the coordinator
// (inproc), at per-PE shares of about 4 k, 16 k and 64 k half-edges. The
// socket side pays the extraction, both codecs, the job/result round trip
// and the hub's supersteps; the stitch and the matching kernels are common
// to both.
func BenchmarkRemoteLevel(b *testing.B) {
	const pes = 2
	for _, tc := range []struct {
		name  string
		scale int
	}{{"share=4k", 10}, {"share=16k", 12}, {"share=64k", 14}} {
		g := gen.RGG(tc.scale, 1)
		cfg := core.NewConfig(core.Fast, 4)
		cfg.Seed = 1
		cfg.PEs = pes
		cfg.Coarsen = core.CoarsenDistributed
		crew := par.Start(runtime.GOMAXPROCS(0), par.Spin)
		blocks := dist.AssignScratch(crew, g, cfg.Distribution, pes, nil)
		maxPair := 3 * g.TotalNodeWeight() / (2 * int64(core.StopRule(g.NumNodes(), &cfg)))

		b.Run(tc.name+"/inproc", func(b *testing.B) {
			t := dist.NewExchanger(pes)
			scratch := []*mem.Arena{mem.NewArena(), mem.NewArena()}
			for b.Loop() {
				if cg, _, _, _ := core.DistributedLevel(crew, g, &cfg, blocks, t, 0, maxPair, scratch); cg == nil {
					b.Fatal("empty matching")
				}
			}
			b.ReportMetric(float64(2*g.NumEdges()/pes), "half-edges/PE")
		})
		b.Run(tc.name+"/socket", func(b *testing.B) {
			sock := filepath.Join(b.TempDir(), "level.sock")
			ln, err := net.Listen("unix", sock)
			if err != nil {
				b.Fatal(err)
			}
			defer ln.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			werrs := make(chan error, pes)
			for range pes {
				go func() {
					_, err := Work(ctx, "unix", sock)
					werrs <- err
				}()
			}
			co := newCoordinator(pes, ln, ServeOptions{})
			defer co.closeAll()
			if err := co.handshake(cfg); err != nil {
				b.Fatal(err)
			}
			for b.Loop() {
				cg, _, _, _, err := co.remoteLevel(crew, g, &cfg, blocks, 0, maxPair)
				if err != nil {
					b.Fatal(err)
				}
				if cg == nil {
					b.Fatal("empty matching")
				}
			}
			b.ReportMetric(float64(2*g.NumEdges()/pes), "half-edges/PE")
			if err := co.hangUp(nil, nil); err != nil {
				b.Fatal(err)
			}
			for range pes {
				if err := <-werrs; err != nil {
					b.Fatal(err)
				}
			}
		})
		crew.Stop()
	}
}
