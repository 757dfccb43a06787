package svc

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/store"
)

// State is a job's position in its lifecycle. The machine is
//
//	queued ──► running ──► done | failed | canceled
//	   │                              ▲
//	   └──────── (cancel/expiry) ─────┘
//
// plus the admission-time rejections (queue full, draining) that never
// create a job at all and are counted only in the metrics.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// terminal reports whether the state is final.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is one admitted partitioning request. The immutable fields (id, config,
// input size, context) are set at admission; the mutable lifecycle lives
// behind mu. Reads through Status and the artifact accessors are safe from
// any goroutine.
type Job struct {
	id           string
	cfg          core.Config
	nodes, edges int // the input's size, served by Status after it is released

	// g is the job's input and mapped, for a shard_dir job, the store
	// mapping g is a view of. The worker reads them only between setRunning
	// and finish; settling drops both under mu, so a settled job keeps what
	// the API serves and nothing it needed only to run.
	g      *graph.Graph
	mapped *store.MappedGraph

	// ctx carries the job's deadline and cancellation; cancel releases it
	// and is safe to call many times.
	ctx    context.Context
	cancel context.CancelFunc

	// cancelRequested distinguishes a client cancel from a deadline expiry:
	// both surface as a context error from the pipeline, but only the former
	// terminates as StateCanceled.
	cancelRequested atomic.Bool

	submitted time.Time
	deadline  time.Time // zero when the job has no deadline

	mu      sync.Mutex
	state   State
	wait    time.Duration // time spent queued, set when the job starts
	runTime time.Duration // time spent running, set when the job finishes
	started time.Time
	errMsg  string
	cut     int64
	balance float64
	levels  int
	arts    *jobArtifacts

	// held is what the settled job keeps for the API, in bytes: its
	// artifacts and its event payloads (kappa_jobs_retained_bytes).
	held atomic.Int64

	// done is closed when the job reaches a terminal state; tests and the
	// drain path wait on it.
	done chan struct{}

	// events is the job's progress stream: lifecycle transitions and the
	// run's trace events, served by the SSE endpoint.
	events *eventLog
}

// newJob builds a queued job whose deadline clock starts now: time spent
// waiting in the queue counts against the deadline, so a drowning server
// sheds expired work instead of running it pointlessly late.
func newJob(id string, g *graph.Graph, mapped *store.MappedGraph, cfg core.Config, parent context.Context, timeout time.Duration) *Job {
	j := &Job{
		id:        id,
		cfg:       cfg,
		nodes:     g.NumNodes(),
		edges:     g.NumEdges(),
		g:         g,
		mapped:    mapped,
		submitted: time.Now(),
		state:     StateQueued,
		done:      make(chan struct{}),
		events:    newEventLog(),
	}
	if timeout > 0 {
		j.deadline = j.submitted.Add(timeout)
		j.ctx, j.cancel = context.WithDeadline(parent, j.deadline)
	} else {
		j.ctx, j.cancel = context.WithCancel(parent)
	}
	j.events.state(StateQueued, "")
	return j
}

// setRunning moves the job from queued to running; it reports false when the
// job was already canceled while waiting, in which case the worker must not
// run it.
func (j *Job) setRunning(wait time.Duration) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.wait = wait
	j.started = time.Now()
	j.events.state(StateRunning, "")
	return true
}

// finish settles the job in a terminal state and wakes every waiter; a job
// that is already terminal is left as it is, so its input is released
// exactly once.
func (j *Job) finish(state State, res core.Result, arts *jobArtifacts, err error) {
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return
	}
	mapped := j.settle(state, res, arts, err)
	j.mu.Unlock()
	j.wake(mapped)
}

// settle records the terminal state, with j.mu held: it keeps the figures
// and artifacts the API serves, seals the event log, and drops the input. It
// returns the input's store mapping for wake to close outside the lock.
func (j *Job) settle(state State, res core.Result, arts *jobArtifacts, err error) *store.MappedGraph {
	if !j.started.IsZero() {
		j.runTime = time.Since(j.started)
	}
	j.state = state
	if err != nil {
		j.errMsg = err.Error()
	}
	if state == StateDone {
		j.cut = res.Cut
		j.balance = res.Balance
		j.levels = res.Levels
		j.arts = arts
	}
	j.events.state(state, errMsg(err))
	j.events.close()
	held := j.events.payloadBytes()
	if j.arts != nil {
		held += int64(len(j.arts.partition) + len(j.arts.report) + len(j.arts.reportZero))
	}
	j.held.Store(held)
	mapped := j.mapped
	j.g, j.mapped = nil, nil
	return mapped
}

// wake completes a settle outside j.mu: it unmaps the input's store mapping,
// releases the job's context, and wakes every waiter.
func (j *Job) wake(mapped *store.MappedGraph) {
	release(mapped)
	j.cancel()
	close(j.done)
}

// errMsg renders err for the event stream; nil is the empty string.
func errMsg(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// requestCancel asks the job to stop: a queued job settles canceled
// immediately (the worker will skip it), a running one has its context
// canceled and settles when the pipeline unwinds. Returns false when the job
// is already terminal.
func (j *Job) requestCancel() bool {
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return false
	}
	j.cancelRequested.Store(true)
	if j.state != StateQueued {
		j.mu.Unlock()
		j.cancel()
		return true
	}
	// Settle now, under the lock that saw the job queued, so the client
	// observes "canceled" without waiting for a worker to reach the job in
	// the queue, and the worker that dequeues it finds it terminal and never
	// touches the released input.
	mapped := j.settle(StateCanceled, core.Result{}, nil, context.Canceled)
	j.mu.Unlock()
	j.wake(mapped)
	return true
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status is the poll-endpoint view of a job.
type Status struct {
	ID        string  `json:"id"`
	State     State   `json:"state"`
	Error     string  `json:"error,omitempty"`
	Nodes     int     `json:"nodes"`
	Edges     int     `json:"edges"`
	K         int     `json:"k"`
	Seed      uint64  `json:"seed"`
	QueueSec  float64 `json:"queue_seconds,omitempty"`
	RunSec    float64 `json:"run_seconds,omitempty"`
	Deadline  string  `json:"deadline,omitempty"`
	Cut       int64   `json:"cut,omitempty"`
	Balance   float64 `json:"balance,omitempty"`
	Levels    int     `json:"levels,omitempty"`
	Partition string  `json:"partition,omitempty"` // URL path of the result, when done
	Report    string  `json:"report,omitempty"`    // URL path of the run report, when done
	Events    string  `json:"events"`              // URL path of the SSE progress stream
}

// Status snapshots the job for the API.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:     j.id,
		State:  j.state,
		Error:  j.errMsg,
		Nodes:  j.nodes,
		Edges:  j.edges,
		K:      j.cfg.K,
		Seed:   j.cfg.Seed,
		Events: "/api/v1/jobs/" + j.id + "/events",
	}
	if !j.deadline.IsZero() {
		st.Deadline = j.deadline.UTC().Format(time.RFC3339Nano)
	}
	if j.wait > 0 {
		st.QueueSec = j.wait.Seconds()
	}
	if j.runTime > 0 {
		st.RunSec = j.runTime.Seconds()
	}
	if j.state == StateDone {
		st.Cut = j.cut
		st.Balance = j.balance
		st.Levels = j.levels
		st.Partition = "/api/v1/jobs/" + j.id + "/result"
		st.Report = "/api/v1/jobs/" + j.id + "/report"
	}
	return st
}

// artifacts returns the rendered result bytes, or nil when the job is not
// done.
func (j *Job) artifacts() *jobArtifacts {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.arts
}
