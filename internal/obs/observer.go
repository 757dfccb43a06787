package obs

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/mem"
)

// PipelineObserver adapts the pipeline's typed trace events to registry
// metrics. All metric children are resolved at construction, so OnTrace does
// only atomic updates — safe to leave attached on the pipeline's critical
// path, and race-clean against concurrent scrapes of the registry.
type PipelineObserver struct {
	runs        *Counter
	levels      *Counter
	levelNodes  *Histogram
	levelEdges  *Histogram
	matchSec    *Histogram
	contractSec *Histogram
	initCut     *Gauge
	initTotal   *Counter
	refineIter  *Counter
	refineGain  *Histogram
	phaseSec    map[core.Phase]*Histogram
}

// NewPipelineObserver registers the pipeline metric catalog on r and returns
// the observer feeding it. Attach with core.WithObserver (or the repro
// facade's WithMetrics); one observer may serve many sequential runs, and
// concurrent runs may each attach their own observer over one registry.
func NewPipelineObserver(r *Registry) *PipelineObserver {
	phase := r.histogramVec("kappa_phase_seconds",
		"Wall-clock of each finished pipeline phase.", TimeBuckets, "phase")
	return &PipelineObserver{
		runs:   r.Counter("kappa_runs_total", "Pipeline runs observed (total-phase events)."),
		levels: r.Counter("kappa_levels_total", "Contraction levels pushed."),
		levelNodes: r.Histogram("kappa_level_nodes",
			"Nodes of each pushed coarser graph.", sizeBuckets),
		levelEdges: r.Histogram("kappa_level_edges",
			"Edges of each pushed coarser graph.", sizeBuckets),
		matchSec: r.Histogram("kappa_level_match_seconds",
			"Matching-kernel wall-clock per contraction level.", TimeBuckets),
		contractSec: r.Histogram("kappa_level_contract_seconds",
			"Contraction-kernel wall-clock per contraction level.", TimeBuckets),
		initCut: r.Gauge("kappa_init_cut",
			"Cut of the most recent initial partition of the coarsest graph."),
		initTotal: r.Counter("kappa_init_total", "Initial partitions computed."),
		refineIter: r.Counter("kappa_refine_iterations_total",
			"Global refinement iterations run."),
		refineGain: r.Histogram("kappa_refine_gain",
			"Total cut reduction per global refinement iteration.", gainBuckets),
		phaseSec: map[core.Phase]*Histogram{
			core.PhaseCoarsen: phase.With("coarsen"),
			core.PhaseInit:    phase.With("init"),
			core.PhaseRefine:  phase.With("refine"),
			core.PhaseTotal:   phase.With("total"),
		},
	}
}

// OnTrace implements core.Observer.
func (o *PipelineObserver) OnTrace(ev core.TraceEvent) {
	switch e := ev.(type) {
	case core.LevelEvent:
		o.levels.Inc()
		o.levelNodes.Observe(float64(e.Nodes))
		o.levelEdges.Observe(float64(e.Edges))
		o.matchSec.Observe(e.Match.Seconds())
		o.contractSec.Observe(e.Contract.Seconds())
	case core.InitEvent:
		o.initTotal.Inc()
		o.initCut.Set(float64(e.Cut))
	case core.RefineEvent:
		o.refineIter.Inc()
		o.refineGain.Observe(float64(e.Gain))
	case core.PhaseEvent:
		if h, ok := o.phaseSec[e.Phase]; ok {
			h.Observe(e.Time.Seconds())
		}
		if e.Phase == core.PhaseTotal {
			o.runs.Inc()
		}
	}
}

// recordResult publishes the headline figures of a finished run as gauges —
// the piece the trace stream does not carry (the final cut belongs to the
// Result, not to any event).
func recordResult(r *Registry, res core.Result) {
	r.Gauge("kappa_last_cut", "Cut of the most recent finished run.").Set(float64(res.Cut))
	r.Gauge("kappa_last_balance", "Balance of the most recent finished run.").Set(res.Balance)
	r.Gauge("kappa_last_levels", "Contraction levels of the most recent finished run.").Set(float64(res.Levels))
}

// BindTransport registers per-PE pull metrics over s: every scrape reads the
// live atomic counters, so transport traffic is visible mid-run. Bind a
// given stats object at most once per registry.
func BindTransport(r *Registry, s *dist.TransportStats) {
	msgsSent := r.CounterVec("kappa_transport_msgs_sent_total",
		"Messages handed to Exchange by this PE.", "pe")
	msgsRecv := r.CounterVec("kappa_transport_msgs_recv_total",
		"Messages received in this PE's inboxes.", "pe")
	bytesSent := r.CounterVec("kappa_transport_bytes_sent_total",
		"Payload bytes this PE wrote to the socket layer.", "pe")
	bytesRecv := r.CounterVec("kappa_transport_bytes_recv_total",
		"Payload bytes this PE read from the socket layer.", "pe")
	framesSent := r.CounterVec("kappa_transport_frames_sent_total",
		"Superstep frames this PE sent.", "pe")
	framesRecv := r.CounterVec("kappa_transport_frames_recv_total",
		"Superstep frames this PE received.", "pe")
	steps := r.CounterVec("kappa_transport_supersteps_total",
		"Supersteps (Exchange calls) this PE completed.", "pe")
	barrier := r.CounterVec("kappa_transport_barrier_seconds_total",
		"Seconds this PE spent blocked in the superstep barrier.", "pe")
	for pe := 0; pe < s.PEs(); pe++ {
		st := s.PE(pe)
		label := strconv.Itoa(pe)
		msgsSent.Func(func() float64 { return float64(st.MsgsSent.Load()) }, label)
		msgsRecv.Func(func() float64 { return float64(st.MsgsRecv.Load()) }, label)
		bytesSent.Func(func() float64 { return float64(st.BytesSent.Load()) }, label)
		bytesRecv.Func(func() float64 { return float64(st.BytesRecv.Load()) }, label)
		framesSent.Func(func() float64 { return float64(st.FramesSent.Load()) }, label)
		framesRecv.Func(func() float64 { return float64(st.FramesRecv.Load()) }, label)
		steps.Func(func() float64 { return float64(st.Supersteps.Load()) }, label)
		barrier.Func(func() float64 { return float64(st.BarrierNanos.Load()) / 1e9 }, label)
	}
}

// BindArena registers pull metrics over a's Stats(): borrow counters and the
// byte-level gauges (live, pooled, allocated). Bind a given arena at most
// once per registry.
func BindArena(r *Registry, a *mem.Arena) {
	r.CounterVec("kappa_arena_borrows_total",
		"Scratch borrows served by the arena.").Func(func() float64 {
		return float64(a.Stats().Borrows)
	})
	r.CounterVec("kappa_arena_reuse_hits_total",
		"Borrows served from a free list.").Func(func() float64 {
		return float64(a.Stats().Reused)
	})
	r.CounterVec("kappa_arena_misses_total",
		"Borrows that allocated fresh backing arrays.").Func(func() float64 {
		return float64(a.Stats().Misses)
	})
	r.CounterVec("kappa_arena_allocated_bytes_total",
		"Bytes of fresh backing arrays the arena made.").Func(func() float64 {
		return float64(a.Stats().AllocatedBytes)
	})
	r.GaugeVec("kappa_arena_live_bytes",
		"Bytes currently borrowed from the arena.").Func(func() float64 {
		return float64(a.Stats().LiveBytes)
	})
	r.GaugeVec("kappa_arena_pooled_bytes",
		"Bytes idle in the arena's free lists.").Func(func() float64 {
		return float64(a.Stats().PooledBytes)
	})
}
