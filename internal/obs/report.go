package obs

import (
	"encoding/json"
	"io"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/mem"
)

// Report is the structured record of one partitioning run: the configuration
// it ran under, the shape of every contraction level with its kernel times,
// the initial partition, every refinement iteration's gain, the rebalancing
// pass if one ran, the final result, and — when bound — transport and arena
// totals. Serialized with WriteTo it
// is a single JSON document whose non-timing fields are byte-deterministic
// for a fixed seed: zero the timings with ZeroTimes and two runs of the same
// input compare byte-equal, whether they ran in-process or across worker
// processes.
type Report struct {
	Graph     GraphReport       `json:"graph"`
	Config    ConfigReport      `json:"config"`
	Levels    []LevelReport     `json:"levels"`
	Init      InitReport        `json:"init"`
	Refine    []RefineReport    `json:"refine"`
	Rebalance []RebalanceReport `json:"rebalance,omitempty"`
	Phases    []PhaseReport     `json:"phases"`
	Result    ResultReport      `json:"result"`
	Transport []PEReport        `json:"transport,omitempty"`
	Arena     *ArenaReport      `json:"arena,omitempty"`
	Faults    *FaultReport      `json:"faults,omitempty"`
}

// GraphReport records the input graph's shape.
type GraphReport struct {
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
}

// ConfigReport records the run parameters that determine the output.
type ConfigReport struct {
	K       int     `json:"k"`
	Eps     float64 `json:"eps"`
	PEs     int     `json:"pes"`
	Workers int     `json:"workers"`
	Coarsen string  `json:"coarsen"`
	Seed    uint64  `json:"seed"`
}

// LevelReport records one pushed contraction level.
type LevelReport struct {
	Level           int     `json:"level"`
	Nodes           int     `json:"nodes"`
	Edges           int     `json:"edges"`
	Seconds         float64 `json:"seconds"`
	MatchSeconds    float64 `json:"match_seconds"`
	ContractSeconds float64 `json:"contract_seconds"`
}

// InitReport records the initial partition of the coarsest graph.
type InitReport struct {
	Cut     int64   `json:"cut"`
	Seconds float64 `json:"seconds"`
}

// RefineReport records one global refinement iteration.
type RefineReport struct {
	Level     int   `json:"level"`
	Iteration int   `json:"iteration"`
	Gain      int64 `json:"gain"`
}

// RebalanceReport records one rebalancing pass; a run that needed none
// reports no rebalance section.
type RebalanceReport struct {
	Level     int   `json:"level"`
	Moved     int   `json:"moved"`
	CutBefore int64 `json:"cut_before"`
	CutAfter  int64 `json:"cut_after"`
	Feasible  bool  `json:"feasible"`
}

// PhaseReport records one finished pipeline phase.
type PhaseReport struct {
	Phase   string  `json:"phase"`
	Seconds float64 `json:"seconds"`
}

// ResultReport records the run's headline figures.
type ResultReport struct {
	Cut     int64   `json:"cut"`
	Balance float64 `json:"balance"`
	Levels  int     `json:"levels"`
}

// PEReport records one PE's transport totals.
type PEReport struct {
	PE             int     `json:"pe"`
	MsgsSent       int64   `json:"msgs_sent"`
	MsgsRecv       int64   `json:"msgs_recv"`
	BytesSent      int64   `json:"bytes_sent"`
	BytesRecv      int64   `json:"bytes_recv"`
	FramesSent     int64   `json:"frames_sent"`
	FramesRecv     int64   `json:"frames_recv"`
	Supersteps     int64   `json:"supersteps"`
	BarrierSeconds float64 `json:"barrier_seconds"`
}

// ArenaReport records the scratch arena's accounting at report time.
type ArenaReport struct {
	Borrows        int64 `json:"borrows"`
	Reused         int64 `json:"reused"`
	Misses         int64 `json:"misses"`
	AllocatedBytes int64 `json:"allocated_bytes"`
	LiveBytes      int64 `json:"live_bytes"`
	PooledBytes    int64 `json:"pooled_bytes"`
}

// ZeroTimes zeroes every scheduling-dependent field in place — wall-clock
// durations, plus the arena's reuse split (whether a concurrent borrow hits
// a free list depends on goroutine interleaving, like a timing). What
// remains is byte-deterministic for a fixed seed: byte-compare two reports
// only after calling it.
func (r *Report) ZeroTimes() {
	for i := range r.Levels {
		r.Levels[i].Seconds = 0
		r.Levels[i].MatchSeconds = 0
		r.Levels[i].ContractSeconds = 0
	}
	r.Init.Seconds = 0
	for i := range r.Phases {
		r.Phases[i].Seconds = 0
	}
	for i := range r.Transport {
		r.Transport[i].BarrierSeconds = 0
	}
	if r.Faults != nil {
		// Heartbeat counts reflect elapsed wall-clock intervals, not the
		// run's logical outcome.
		r.Faults.HeartbeatsSent = 0
		r.Faults.HeartbeatsRecv = 0
	}
	if r.Arena != nil {
		// Borrows is deterministic (one per borrow call); the rest reflects
		// which borrows raced into the free lists first.
		r.Arena.Reused = 0
		r.Arena.Misses = 0
		r.Arena.AllocatedBytes = 0
		r.Arena.LiveBytes = 0
		r.Arena.PooledBytes = 0
	}
}

// WriteTo serializes the report as one indented JSON document. Field order is
// fixed by the struct definitions, so output is deterministic.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return 0, err
	}
	b = append(b, '\n')
	n, err := w.Write(b)
	return int64(n), err
}

// ReportObserver assembles a Report from the pipeline's trace stream. Attach
// it with core.WithObserver, run, then call Finish with the run's result.
// Like every Observer it is driven from the single coordinating goroutine
// and needs no locking; one observer records one run.
type ReportObserver struct {
	report Report
}

// NewReportObserver returns an observer recording graph shape and
// configuration immediately, with the event-driven sections filled during
// the run.
func NewReportObserver(g *graph.Graph, cfg core.Config) *ReportObserver {
	return &ReportObserver{report: Report{
		Graph: GraphReport{Nodes: g.NumNodes(), Edges: g.NumEdges()},
		Config: ConfigReport{
			K:       cfg.K,
			Eps:     cfg.Eps,
			PEs:     cfg.NumPEs(),
			Workers: cfg.Workers,
			Coarsen: cfg.Coarsen.String(),
			Seed:    cfg.Seed,
		},
		// Non-nil so the JSON sections render as [] rather than null even
		// for degenerate runs with no levels or refinement.
		Levels: []LevelReport{},
		Refine: []RefineReport{},
		Phases: []PhaseReport{},
	}}
}

// TraceRecord is the one translation of a pipeline trace event into its
// user-visible record: a kind name and the report entry — a LevelReport,
// InitReport, RefineReport, RebalanceReport or PhaseReport. The run report files the entry;
// the service's SSE stream sends it, marshalled, as the payload of an event
// of that kind. A kind with no report entry is "trace", carrying its log
// rendering.
func TraceRecord(ev core.TraceEvent) (kind string, entry any) {
	switch e := ev.(type) {
	case core.LevelEvent:
		return "level", LevelReport{
			Level:           e.Level,
			Nodes:           e.Nodes,
			Edges:           e.Edges,
			Seconds:         e.Time.Seconds(),
			MatchSeconds:    e.Match.Seconds(),
			ContractSeconds: e.Contract.Seconds(),
		}
	case core.InitEvent:
		return "init", InitReport{Cut: e.Cut, Seconds: e.Time.Seconds()}
	case core.RefineEvent:
		return "refine", RefineReport{Level: e.Level, Iteration: e.Iteration, Gain: e.Gain}
	case core.RebalanceEvent:
		return "rebalance", RebalanceReport{Level: e.Level, Moved: e.Moved, CutBefore: e.CutBefore, CutAfter: e.CutAfter, Feasible: e.Feasible}
	case core.PhaseEvent:
		return "phase", PhaseReport{Phase: e.Phase.String(), Seconds: e.Time.Seconds()}
	}
	return "trace", struct {
		Text string `json:"text"`
	}{Text: ev.String()}
}

// OnTrace implements core.Observer.
func (o *ReportObserver) OnTrace(ev core.TraceEvent) {
	_, entry := TraceRecord(ev)
	switch e := entry.(type) {
	case LevelReport:
		o.report.Levels = append(o.report.Levels, e)
	case InitReport:
		o.report.Init = e
	case RefineReport:
		o.report.Refine = append(o.report.Refine, e)
	case RebalanceReport:
		o.report.Rebalance = append(o.report.Rebalance, e)
	case PhaseReport:
		o.report.Phases = append(o.report.Phases, e)
	}
}

// Finish stamps the run's result and returns the assembled report. Optional
// transport stats and arena snapshots are folded in when non-nil; the arena
// is taken as fresh for this run (a Recorder takes a pooled one as a delta).
func (o *ReportObserver) Finish(res core.Result, stats *dist.TransportStats, arena *mem.Arena) *Report {
	o.report.Result = ResultReport{Cut: res.Cut, Balance: res.Balance, Levels: res.Levels}
	if stats != nil {
		o.report.Transport = transportSection(stats)
	}
	if arena != nil {
		o.report.Arena = arenaSection(mem.ArenaStats{}, arena.Stats())
	}
	return &o.report
}

// arenaSection is an arena's accounting since before: the counters as
// deltas, the live and pooled bytes as they stand.
func arenaSection(before, after mem.ArenaStats) *ArenaReport {
	return &ArenaReport{
		Borrows:        after.Borrows - before.Borrows,
		Reused:         after.Reused - before.Reused,
		Misses:         after.Misses - before.Misses,
		AllocatedBytes: after.AllocatedBytes - before.AllocatedBytes,
		LiveBytes:      after.LiveBytes,
		PooledBytes:    after.PooledBytes,
	}
}

// transportSection renders per-PE transport totals.
func transportSection(stats *dist.TransportStats) []PEReport {
	totals := stats.Snapshot()
	out := make([]PEReport, len(totals))
	for pe, t := range totals {
		out[pe] = PEReport{
			PE:             pe,
			MsgsSent:       t.MsgsSent,
			MsgsRecv:       t.MsgsRecv,
			BytesSent:      t.BytesSent,
			BytesRecv:      t.BytesRecv,
			FramesSent:     t.FramesSent,
			FramesRecv:     t.FramesRecv,
			Supersteps:     t.Supersteps,
			BarrierSeconds: float64(t.BarrierNanos) / 1e9,
		}
	}
	return out
}
