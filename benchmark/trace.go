package main

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/remote"
)

// opTrace turns what the benchmark can see of one op from outside — its own
// stopwatch, the arrival times of the program's trace events, and the calls
// the pipeline makes into a benchmark-owned Distributor — into spans under
// the op's root span. Durations carried inside the events are not used: a
// span's edges are moments the benchmark itself observed.
//
//	op
//	├─ core.coarsen        first Distribute call → coarsen PhaseEvent
//	│  ├─ core.level0      Distribute call → LevelEvent, finest graph
//	│  │  └─ dist.assign   the Distribute call itself
//	│  └─ core.level …     the same for every coarser level
//	├─ core.init           coarsen PhaseEvent → init PhaseEvent
//	└─ core.refine         init PhaseEvent → refine PhaseEvent
//	   ├─ core.refine_coarse  previous event → RefineEvent below the finest level
//	   └─ core.refine_finest  the same on the input graph
//
// What is left of the op — validation, worker handshake, final broadcast,
// HTTP — is the root span's self time.
//
// Where no Distribute call arrives — the service runs the pipeline behind
// HTTP, and remote.ServeStore installs a Distributor of its own after the
// benchmark's — levels tile the coarsen phase between event arrivals, and on
// store_serve the phase starts with the op.
//
// The pipeline drives its observers and its Distributor from one goroutine,
// and the SSE reader of svc_mix is one goroutine per op, so an opTrace needs
// no lock of its own.
type opTrace struct {
	rec  *recorder
	op   int
	root int

	coarsen, level, init, refine int // open span ids, -1 when closed
	last                         time.Time

	levels      int
	refineIters int
	initCut     int64

	// Counter sinks the op attaches to the program where the mode has them,
	// and what end read out of them.
	arena      *mem.Arena
	stats      *dist.TransportStats
	counters   *remote.Counters
	arenaStats *mem.ArenaStats
	transport  []dist.PETotals
	remote     *remote.CounterSnapshot

	// Client-side and status-JSON timings of a service op.
	svc svcTimes
}

func newOpTrace(rec *recorder, op int, now time.Time) *opTrace {
	t := &opTrace{rec: rec, op: op, coarsen: -1, level: -1, init: -1, refine: -1, last: now}
	t.root = rec.begin(-1, op, "op", now)
	return t
}

// end closes the op's root span and reads the counter sinks out, so that an
// op's arena and hub statistics do not live on until the run ends.
func (t *opTrace) end(now time.Time) {
	t.rec.finish(t.root, now)
	if t.arena != nil {
		st := t.arena.Stats()
		t.arenaStats, t.arena = &st, nil
	}
	if t.stats != nil {
		t.transport, t.stats = t.stats.Snapshot(), nil
	}
	if t.counters != nil {
		c := t.counters.Snapshot()
		t.remote, t.counters = &c, nil
	}
}

// coreOptions attaches the tracer to a pipeline run: observer, the timing
// Distributor, and a fresh arena whose statistics are this op's alone.
func (t *opTrace) coreOptions() []core.Option {
	t.arena = mem.NewArena()
	return []core.Option{core.WithObserver(t), core.WithDistributor(t), core.WithArena(t.arena)}
}

// Distribute implements core.Distributor with the pipeline's default
// behaviour, recording when each contraction level starts and how long the
// node-to-PE assignment takes.
func (t *opTrace) Distribute(ctx context.Context, g *graph.Graph, cfg *core.Config, pes int) ([]int32, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	t.levelStart(t0)
	blocks := dist.Assign(g, cfg.Distribution, pes)
	t.rec.add(t.level, t.op, "dist.assign", t0, time.Now())
	return blocks, nil
}

// OnTrace implements core.Observer.
func (t *opTrace) OnTrace(ev core.TraceEvent) {
	now := time.Now()
	switch e := ev.(type) {
	case core.LevelEvent:
		t.levelEnd(now)
	case core.InitEvent:
		t.initCut = e.Cut
	case core.RefineEvent:
		t.refineIter(e.Level, now)
	case core.PhaseEvent:
		t.phaseEnd(e.Phase.String(), now)
	}
}

// started marks the moment the pipeline began, for modes where the
// benchmark learns it from a lifecycle event instead of a Distribute call.
func (t *opTrace) started(now time.Time) {
	t.coarsen = t.rec.begin(t.root, t.op, "core.coarsen", now)
	t.last = now
}

// levelStart opens a contraction level (and the coarsen phase with the
// first one). A level the pipeline rejects for shrinking too little never
// gets a LevelEvent; its span is closed by the next level or the phase end.
func (t *opTrace) levelStart(now time.Time) {
	if t.coarsen < 0 {
		t.coarsen = t.rec.begin(t.root, t.op, "core.coarsen", now)
	}
	t.closeLevel(now)
	name := "core.level"
	if t.levels == 0 {
		name = "core.level0"
	}
	t.level = t.rec.begin(t.coarsen, t.op, name, now)
}

func (t *opTrace) closeLevel(now time.Time) {
	if t.level >= 0 {
		t.rec.finish(t.level, now)
		t.level = -1
	}
}

func (t *opTrace) levelEnd(now time.Time) {
	if t.level < 0 {
		// No Distribute call marks level starts here (the service runs the
		// pipeline behind HTTP): levels tile the phase between arrivals.
		t.levelStart(t.last)
	}
	t.closeLevel(now)
	t.levels++
	t.last = now
}

func (t *opTrace) refineIter(level int, now time.Time) {
	name := "core.refine_coarse"
	if level == t.levels {
		name = "core.refine_finest"
	}
	t.rec.add(t.refine, t.op, name, t.last, now)
	t.refineIters++
	t.last = now
}

// phaseEnd closes the named phase and opens the next one: the program
// announces phases when they finish, so the following phase starts at the
// same observed moment.
func (t *opTrace) phaseEnd(phase string, now time.Time) {
	switch phase {
	case core.PhaseCoarsen.String():
		t.closeLevel(now)
		if t.coarsen >= 0 {
			t.rec.finish(t.coarsen, now)
		}
		t.init = t.rec.begin(t.root, t.op, "core.init", now)
	case core.PhaseInit.String():
		t.rec.finish(t.init, now)
		t.refine = t.rec.begin(t.root, t.op, "core.refine", now)
	case core.PhaseRefine.String():
		t.rec.finish(t.refine, now)
	}
	t.last = now
}
