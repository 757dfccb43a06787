package core

import (
	"fmt"
	"time"
)

// Phase names one top-level stage of the pipeline.
type Phase int

const (
	// PhaseCoarsen is the contraction phase (§3).
	PhaseCoarsen Phase = iota
	// PhaseInit is initial partitioning of the coarsest graph (§4).
	PhaseInit
	// PhaseRefine is multilevel pairwise refinement (§5).
	PhaseRefine
	// PhaseTotal is the whole run; its PhaseEvent is always the last event.
	PhaseTotal
)

// String returns the human-readable phase name.
func (p Phase) String() string {
	switch p {
	case PhaseCoarsen:
		return "coarsen"
	case PhaseInit:
		return "init"
	case PhaseRefine:
		return "refine"
	case PhaseTotal:
		return "total"
	default:
		return fmt.Sprintf("core.Phase(%d)", int(p))
	}
}

// TraceEvent is a typed progress event emitted by a Pipeline run. Events are
// emitted synchronously from the coordinating goroutine, in pipeline order:
// one LevelEvent per contraction level, then the coarsen PhaseEvent, the
// InitEvent, the init PhaseEvent, the RefineEvents of every uncoarsening
// level, a RebalanceEvent when the refined partition still violated the
// balance constraint, the refine PhaseEvent, and finally the total
// PhaseEvent. An Observer must not block for long — it runs on the
// pipeline's critical path.
type TraceEvent interface {
	// String renders the event for progress logs.
	String() string
	traceEvent()
}

// LevelEvent reports one pushed contraction level, including the split of
// its wall-clock between the two kernels of the level: matching (including
// the node-to-PE prepartition) and contraction. The kernel times are what
// perf work optimizes; Time additionally covers the level's bookkeeping.
type LevelEvent struct {
	Level int // 1-based contraction level
	Nodes int // nodes of the new coarser graph
	Edges int // edges of the new coarser graph
	Time  time.Duration

	Match    time.Duration // matching kernel (§3.2–3.3)
	Contract time.Duration // contraction kernel (two-pass CSR build)
}

func (LevelEvent) traceEvent() {}

func (e LevelEvent) String() string {
	return fmt.Sprintf("level %d: %d nodes, %d edges (%v; match %v, contract %v)",
		e.Level, e.Nodes, e.Edges, e.Time.Round(time.Microsecond),
		e.Match.Round(time.Microsecond), e.Contract.Round(time.Microsecond))
}

// InitEvent reports the initial partition of the coarsest graph.
type InitEvent struct {
	Cut  int64
	Time time.Duration
}

func (InitEvent) traceEvent() {}

func (e InitEvent) String() string {
	return fmt.Sprintf("init: cut %d (%v)", e.Cut, e.Time.Round(time.Microsecond))
}

// RefineEvent reports one global refinement iteration on one level.
type RefineEvent struct {
	Level     int   // uncoarsening steps done: 0 = coarsest graph, Levels = finest
	Iteration int   // global iteration within the level, 0-based
	Gain      int64 // total cut reduction of the iteration
}

func (RefineEvent) traceEvent() {}

func (e RefineEvent) String() string {
	return fmt.Sprintf("refine level %d iter %d: gain %d", e.Level, e.Iteration, e.Gain)
}

// RebalanceEvent reports a rebalancing pass: the moves that drained the
// overloaded blocks of a partition, and what they did to the cut. A run
// rebalances its refined finest level; RefineExistingCtx rebalances its
// input before refining it.
type RebalanceEvent struct {
	Level     int   // uncoarsening steps done, as in RefineEvent
	Moved     int   // node moves made
	CutBefore int64 // cut of the infeasible partition
	CutAfter  int64
	Feasible  bool // the balance constraint holds afterwards
}

func (RebalanceEvent) traceEvent() {}

func (e RebalanceEvent) String() string {
	return fmt.Sprintf("rebalance level %d: %d moves, cut %d -> %d (feasible %v)",
		e.Level, e.Moved, e.CutBefore, e.CutAfter, e.Feasible)
}

// PhaseEvent reports a finished phase and its wall-clock duration.
type PhaseEvent struct {
	Phase Phase
	Time  time.Duration
}

func (PhaseEvent) traceEvent() {}

func (e PhaseEvent) String() string {
	return fmt.Sprintf("%s phase: %v", e.Phase, e.Time.Round(time.Microsecond))
}

// Observer receives the trace events of a pipeline run; attach one with
// WithObserver. Implementations need not be safe for concurrent use: the
// pipeline emits from a single goroutine.
type Observer interface {
	OnTrace(TraceEvent)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(TraceEvent)

// OnTrace calls f(ev).
func (f ObserverFunc) OnTrace(ev TraceEvent) { f(ev) }
