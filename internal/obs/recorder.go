package obs

import (
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/remote"
)

// Recorder is the instrumentation of one run, shared by every front end —
// kappa, kappa serve, and each kappa api job: the metered transport totals,
// the report observer, and the pipeline metrics on an optional registry.
// Binding the transport, arena and fault counters as pull metrics stays with
// whoever owns the registry.
type Recorder struct {
	// Stats collects the run's per-PE transport totals; a coordinator meters
	// its socket hub into it too (remote.ServeOptions.Stats).
	Stats *dist.TransportStats
	// Faults, when set, are the coordinator's counters behind the report's
	// faults section.
	Faults *remote.Counters

	arena    *mem.Arena
	before   mem.ArenaStats
	registry *Registry
	reporter *ReportObserver
}

// NewRecorder starts recording one run of g under cfg that draws its scratch
// from arena. The report's arena section is the delta from the arena's
// counters now, so a pooled arena reports what a fresh one would. A non-nil
// registry receives the pipeline metrics and, at Finish, the result gauges.
func NewRecorder(g *graph.Graph, cfg core.Config, arena *mem.Arena, registry *Registry) *Recorder {
	return &Recorder{
		Stats:    dist.NewTransportStats(cfg.NumPEs()),
		arena:    arena,
		before:   arena.Stats(),
		registry: registry,
		reporter: NewReportObserver(g, cfg),
	}
}

// Options attaches the recorder to the run.
func (r *Recorder) Options() []core.Option {
	opts := []core.Option{core.WithArena(r.arena), core.WithTransportStats(r.Stats)}
	if r.registry != nil {
		opts = append(opts, core.WithObserver(NewPipelineObserver(r.registry)))
	}
	return append(opts, core.WithObserver(r.reporter))
}

// Finish publishes the result gauges and returns the run's report, with its
// transport, arena and faults sections.
func (r *Recorder) Finish(res core.Result) *Report {
	if r.registry != nil {
		recordResult(r.registry, res)
	}
	rep := r.reporter.Finish(res, r.Stats, nil)
	rep.Arena = arenaSection(r.before, r.arena.Stats())
	rep.Faults = faultSection(r.Faults)
	return rep
}
