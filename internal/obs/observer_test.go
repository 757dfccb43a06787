package obs

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/mem"
	"repro/internal/remote"
)

func testConfig() core.Config {
	cfg := core.NewConfig(core.Fast, 4)
	cfg.Seed = 11
	cfg.Workers = 4
	cfg.Coarsen = core.CoarsenDistributed
	return cfg
}

// TestPipelineObserverMetrics runs the real pipeline with the full metric
// stack attached — pipeline observer, metered transport, arena binding — and
// checks every layer shows up in a scrape.
func TestPipelineObserverMetrics(t *testing.T) {
	g := gen.RGG(11, 3)
	cfg := testConfig()
	reg := NewRegistry()
	stats := dist.NewTransportStats(cfg.NumPEs())
	arena := mem.NewArena()
	BindTransport(reg, stats)
	BindArena(reg, arena)

	res, err := core.Run(context.Background(), g, cfg,
		core.WithObserver(NewPipelineObserver(reg)),
		core.WithTransportStats(stats),
		core.WithArena(arena))
	if err != nil {
		t.Fatal(err)
	}
	recordResult(reg, res)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"kappa_runs_total 1",
		"kappa_init_total 1",
		"kappa_levels_total",
		"kappa_phase_seconds_bucket",
		`kappa_transport_supersteps_total{pe="0"}`,
		"kappa_arena_borrows_total",
		"kappa_last_cut",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("scrape is missing %q:\n%s", want, out)
		}
	}
	if res.Levels < 1 {
		t.Fatal("test graph produced no contraction levels")
	}
	// Distributed coarsening must have moved supersteps through the metered
	// transport, and the run must have exercised the arena.
	if stats.Totals().Supersteps == 0 || stats.Totals().MsgsSent == 0 {
		t.Fatalf("transport stats not populated: %+v", stats.Totals())
	}
	if arena.Stats().Borrows == 0 {
		t.Fatal("arena stats not populated")
	}
	snap := reg.Snapshot()
	if len(snap.Metrics) == 0 {
		t.Fatal("JSON snapshot is empty")
	}
	// The metric stack observes; it must not change the partition.
	plain, err := core.Run(context.Background(), g, cfg)
	if err != nil || plain.Cut != res.Cut || !slices.Equal(plain.Blocks, res.Blocks) {
		t.Fatalf("observed run diverged from the plain run: cut %d vs %d (%v)", res.Cut, plain.Cut, err)
	}
}

// TestNoEventsAfterRun pins the synchronous-emission contract: once Run has
// returned, no observer callback fires anymore — there is no goroutine left
// that could emit.
func TestNoEventsAfterRun(t *testing.T) {
	g := gen.RGG(10, 5)
	cfg := testConfig()
	var events atomic.Int64
	_, err := core.Run(context.Background(), g, cfg,
		core.WithObserver(core.ObserverFunc(func(core.TraceEvent) { events.Add(1) })))
	if err != nil {
		t.Fatal(err)
	}
	after := events.Load()
	if after == 0 {
		t.Fatal("observer saw no events at all")
	}
	time.Sleep(50 * time.Millisecond)
	if got := events.Load(); got != after {
		t.Fatalf("events kept arriving after Run returned: %d -> %d", after, got)
	}
}

// TestEmitRaceWithScrapes runs the pipeline with the metrics observer
// attached while scraping the registry continuously from other goroutines;
// under -race this is the end-to-end data-race check of the whole stack.
func TestEmitRaceWithScrapes(t *testing.T) {
	g := gen.RGG(10, 7)
	cfg := testConfig()
	reg := NewRegistry()
	stats := dist.NewTransportStats(cfg.NumPEs())
	arena := mem.NewArena()
	BindTransport(reg, stats)
	BindArena(reg, arena)

	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sb strings.Builder
			reg.WritePrometheus(&sb)
			reg.WriteJSON(&sb)
		}
	}()
	_, err := core.Run(context.Background(), g, cfg,
		core.WithObserver(NewPipelineObserver(reg)),
		core.WithTransportStats(stats),
		core.WithArena(arena))
	close(stop)
	<-scraped
	if err != nil {
		t.Fatal(err)
	}
}

// runReport produces one finished report for a fixed-seed run.
func runReport(t *testing.T, seed uint64) []byte {
	t.Helper()
	g := gen.RGG(11, 9)
	cfg := testConfig()
	cfg.Seed = seed
	stats := dist.NewTransportStats(cfg.NumPEs())
	arena := mem.NewArena()
	rep := NewReportObserver(g, cfg)
	res, err := core.Run(context.Background(), g, cfg,
		core.WithObserver(rep),
		core.WithTransportStats(stats),
		core.WithArena(arena))
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Finish(res, stats, arena)
	r.ZeroTimes()
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReportDeterministic pins the report contract: for a fixed seed two
// independent runs serialize byte-identically once ZeroTimes has cleared the
// scheduling-dependent fields.
func TestReportDeterministic(t *testing.T) {
	a := runReport(t, 1217)
	b := runReport(t, 1217)
	if !bytes.Equal(a, b) {
		t.Fatalf("reports of identical runs differ:\n--- first\n%s\n--- second\n%s", a, b)
	}
	other := runReport(t, 4242)
	if bytes.Equal(a, other) {
		t.Fatal("reports of different seeds must differ")
	}
	// Sanity on content: the deterministic sections must be present.
	for _, want := range []string{`"levels"`, `"init"`, `"refine"`, `"result"`, `"transport"`, `"arena"`, `"borrows"`} {
		if !bytes.Contains(a, []byte(want)) {
			t.Fatalf("report is missing section %s:\n%s", want, a)
		}
	}
}

// TestRecorderTakesArenaAsDelta pins the recorder's arena rule: a run on an
// arena warm from an earlier run reports, once zeroed, what the first run
// did on the fresh arena — and the registry gets the result gauges.
func TestRecorderTakesArenaAsDelta(t *testing.T) {
	g := gen.RGG(10, 3)
	cfg := testConfig()
	arena := mem.NewArena()
	reg := NewRegistry()
	var reports [2][]byte
	for i := range reports {
		rec := NewRecorder(g, cfg, arena, reg)
		res, err := core.Run(context.Background(), g, cfg, rec.Options()...)
		if err != nil {
			t.Fatal(err)
		}
		rep := rec.Finish(res)
		if rep.Arena.Borrows == 0 || len(rep.Transport) != cfg.NumPEs() || rep.Faults != nil {
			t.Fatalf("run %d: arena %+v, %d transport rows, faults %+v", i, rep.Arena, len(rep.Transport), rep.Faults)
		}
		rep.ZeroTimes()
		var buf bytes.Buffer
		if _, err := rep.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		reports[i] = buf.Bytes()
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Fatalf("warm-arena report differs:\n--- fresh\n%s\n--- warm\n%s", reports[0], reports[1])
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil || !strings.Contains(sb.String(), "kappa_last_cut") {
		t.Fatalf("registry lacks the result gauges (%v)", err)
	}
}

// TestBindRemoteExportsFoldedLevels pins where the coordinator's folded
// levels surface: a metric scraped live and the report's faults section.
func TestBindRemoteExportsFoldedLevels(t *testing.T) {
	var c remote.Counters
	c.FoldedLevels.Store(3)
	r := NewRegistry()
	BindRemote(r, &c)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\nkappa_remote_folded_levels_total 3\n") {
		t.Fatalf("scrape lacks the folded-levels counter:\n%s", buf.String())
	}
	if f := faultSection(&c); f.FoldedLevels != 3 || f.LocalFallbacks != 0 {
		t.Fatalf("faults section %+v", f)
	}
}
