package remote_test

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/remote"
)

// TestFoldKeepsBytes serves the instance and configuration of the rgg:12
// golden rows (k=8 on two PEs) with the fold floor at 0 (every level
// ships), at its default, and at "fold every level that is not spliced",
// through ServeWith and through ServeStore. All six runs must give the same
// blocks, cut, time-zeroed report and per-PE superstep counts: a folded
// level runs the PEs' superstep sequence in process, the vote included. The
// rest of the transport section (frames and bytes, which only shipped levels
// put on the wire) and the faults section, which count where the levels ran,
// are left out of the comparison. A fold is neither a retry nor a fallback,
// and every level the coordinator ran is either folded or run by every
// worker.
func TestFoldKeepsBytes(t *testing.T) {
	g, err := gen.FromSpec("rgg:12")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.NewConfig(core.Fast, 8)
	cfg.Seed = 1
	cfg.PEs = 2
	cfg.Coarsen = core.CoarsenDistributed
	cfg.Distribution = dist.StrategyRCB
	st := writeTestStore(t, g, 2, dist.StrategyRCB)

	var want core.Result
	var wantReport []byte
	var wantSteps []int64
	for _, mode := range []string{"socket", "store"} {
		for _, fl := range []struct {
			name  string
			floor int
		}{{"ship-all", 0}, {"default", remote.FoldHalfEdges}, {"fold-all", math.MaxInt}} {
			t.Run(mode+"/"+fl.name, func(t *testing.T) {
				remote.SetFoldFloor(t, fl.floor)
				var counters remote.Counters
				stats := dist.NewTransportStats(cfg.PEs)
				so := remote.ServeOptions{Counters: &counters, Stats: stats}
				var res core.Result
				var workers []remote.WorkResult
				report := zeroedReport(t, g, cfg, func(opts ...core.Option) (core.Result, error) {
					if mode == "socket" {
						res, workers = runServeWorkers(t, g, cfg, so, opts...)
					} else {
						res, workers = runServeStoreWorkers(t, st, cfg, so, opts...)
					}
					return res, nil
				})
				var steps []int64
				for _, pe := range stats.Snapshot() {
					steps = append(steps, pe.Supersteps)
				}
				if wantReport == nil {
					want, wantReport, wantSteps = res, report, steps
				} else if res.Cut != want.Cut || !reflect.DeepEqual(res.Blocks, want.Blocks) {
					t.Fatalf("partition moved with the fold floor: cut %d vs %d", res.Cut, want.Cut)
				} else if !bytes.Equal(report, wantReport) {
					t.Fatalf("report moved with the fold floor:\n--- ship-all\n%s\n--- %s\n%s", wantReport, fl.name, report)
				} else if !slices.Equal(steps, wantSteps) {
					t.Fatalf("per-PE supersteps moved with the fold floor: %v, socket/ship-all %v", steps, wantSteps)
				}

				s := counters.Snapshot()
				if s.LocalFallbacks != 0 || s.LevelRetries != 0 || s.WorkerFailures != 0 {
					t.Errorf("an undisturbed run counted faults: %+v", s)
				}
				folded := int(s.FoldedLevels)
				for i, wr := range workers {
					// The coordinator may reject its last level for
					// shrinking too little.
					if ran := wr.Levels + folded; ran < res.Levels || ran > res.Levels+1 {
						t.Errorf("worker %d ran %d levels and %d folded, coordinator built %d", i, wr.Levels, folded, res.Levels)
					}
					if !reflect.DeepEqual(wr.Partition, res.Blocks) {
						t.Errorf("worker %d received a different final partition", i)
					}
					switch {
					case fl.floor == 0 && folded != 0:
						t.Errorf("floor 0 folded %d levels", folded)
					case fl.floor > 0 && folded == 0:
						t.Errorf("floor %d folded no level", fl.floor)
					case mode == "socket" && fl.name == "fold-all" && wr.Levels != 0:
						t.Errorf("worker %d ran %d levels of a run that folds them all", i, wr.Levels)
					case (mode == "store" || fl.name == "default") && wr.Levels < 1:
						// Level 0 always ships from a store, and at the
						// default floor rgg:12 (15.7 k half-edges a PE)
						// ships it from memory too: the golden rows keep
						// testing the wire.
						t.Errorf("worker %d never ran level 0", i)
					}
				}
				if mode == "store" && s.ShardsStreamed != 2 {
					t.Errorf("ShardsStreamed = %d, want 2", s.ShardsStreamed)
				}
			})
		}
	}
}
