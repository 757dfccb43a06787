// Package svc is the serving layer of the partitioner: a long-running,
// hardened partitioner-as-a-service over repro's core.Run. It turns
// partitioning from a CLI invocation into a request — submit a job over
// HTTP/JSON, poll its status, fetch the partition and the structured run
// report — while carrying the failure budget of a production serving stack:
//
//   - Admission control. Jobs wait in a bounded queue; when it is full the
//     server answers 429 with a Retry-After hint instead of queueing
//     unboundedly. A configurable number of jobs (default GOMAXPROCS) run
//     concurrently, each drawing scratch from a per-slot mem.Arena that is
//     reused across jobs.
//   - Per-job deadlines and cancellation. Every job runs under a context
//     carrying its deadline (started at admission, so queue time counts) and
//     can be canceled by the client mid-run; the core pipeline's context
//     plumbing aborts between levels and refinement iterations.
//   - Panic isolation. The job runner installs a same-goroutine recover: a
//     panicking kernel fails that job (the panic value is surfaced in its
//     status) without taking down the server or its worker slot.
//   - Graceful drain. Drain stops admission (readiness flips to 503),
//     finishes the queued and running jobs, and — when the drain grace
//     expires — deadline-cancels whatever is still in flight. kappa api
//     triggers it from SIGTERM/SIGINT.
//
// Results are byte-identical to the kappa CLI at the same spec and seed: the
// partition text and the ZeroTimes run report of a job match the -out and
// -report artifacts of the equivalent one-shot invocation.
//
// The package is deliberately free of policy about transport hardening: the
// HTTP handler is mounted into an obs.NewServer (slowloris-hardened) by
// cmd/kappa's api subcommand.
package svc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/store"
)

// runFunc is the pipeline entry point a Server drives; tests substitute a
// deterministic stand-in to exercise queueing, deadlines, and panic
// isolation without real partitioning work.
type runFunc func(ctx context.Context, g *graph.Graph, cfg core.Config, opts ...core.Option) (core.Result, error)

// Options configures a Server. The zero value is serviceable: GOMAXPROCS
// concurrent jobs, a 64-deep queue, no default deadline, a private metrics
// registry.
type Options struct {
	// Queue is the job queue depth — the admission-control bound. Jobs
	// beyond Concurrency running plus Queue waiting are rejected with 429.
	// 0 means 64.
	Queue int

	// Concurrency caps the jobs partitioning at once; 0 means GOMAXPROCS.
	// Each concurrency slot owns one mem.Arena reused across its jobs.
	Concurrency int

	// DefaultTimeout applies to jobs whose spec names no deadline; 0 means
	// no deadline.
	DefaultTimeout time.Duration

	// MaxTimeout caps the deadline a job may request (and clamps
	// DefaultTimeout); 0 means uncapped.
	MaxTimeout time.Duration

	// MaxBody bounds a submit request's body (admission control for inline
	// graphs); 0 means 64 MiB.
	MaxBody int64

	// GraphDir, when set, is the only directory job specs may load graph
	// files from (paths are resolved inside it; escapes are rejected).
	// Empty means any server-readable path is allowed.
	GraphDir string

	// RetryAfter is the hint sent with 429 rejections; 0 means 1s.
	RetryAfter time.Duration

	// Retain bounds the finished jobs kept for status/result polling;
	// older finished jobs are evicted first. 0 means 1024.
	Retain int

	// Registry receives the kappa_jobs_* service metrics and the per-run
	// pipeline metrics. Nil means a private registry (metrics still drive
	// admission bookkeeping, they are just not exported anywhere). A
	// registry must not be shared by two Servers.
	Registry *obs.Registry

	// run substitutes the pipeline entry point in tests; nil means core.Run.
	run runFunc
}

// withDefaults resolves every zero Option to its documented default.
func (o Options) withDefaults() Options {
	if o.Queue == 0 {
		o.Queue = 64
	}
	if o.Concurrency == 0 {
		o.Concurrency = runtime.GOMAXPROCS(0)
	}
	if o.MaxBody == 0 {
		o.MaxBody = 64 << 20
	}
	if o.RetryAfter == 0 {
		o.RetryAfter = time.Second
	}
	if o.Retain == 0 {
		o.Retain = 1024
	}
	if o.MaxTimeout > 0 && (o.DefaultTimeout == 0 || o.DefaultTimeout > o.MaxTimeout) {
		o.DefaultTimeout = o.MaxTimeout
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	if o.run == nil {
		o.run = core.Run
	}
	return o
}

// Server is the partitioning service: a bounded job queue drained by a fixed
// pool of worker goroutines, a job registry behind the HTTP API, and the
// drain state machine. Create with New, mount Handler on an HTTP server,
// stop with Drain (graceful) or Close (immediate).
type Server struct {
	opts    Options
	metrics *serviceMetrics

	queue chan *Job // bounded: admission control is a failed non-blocking send

	// jobsCtx parents every job context; jobsCancel is the drain grace
	// expiring ("deadline-cancel whatever is still in flight") and Close.
	jobsCtx    context.Context
	jobsCancel context.CancelFunc

	stop chan struct{} // closed once by Drain/Close: stop admitting, drain queue
	wg   sync.WaitGroup

	mu       sync.Mutex
	draining bool
	nextID   int
	jobs     map[string]*Job
	finished []string // finished job ids in completion order, for retention
}

// New starts a Server: the worker pool is live and Handler may be served
// immediately.
func New(opts Options) *Server {
	o := opts.withDefaults()
	s := &Server{
		opts:  o,
		queue: make(chan *Job, o.Queue),
		stop:  make(chan struct{}),
		jobs:  make(map[string]*Job),
	}
	s.jobsCtx, s.jobsCancel = context.WithCancel(context.Background())
	s.metrics = newServiceMetrics(o.Registry, func() float64 { return float64(len(s.queue)) }, s.retainedBytes)
	s.wg.Add(o.Concurrency)
	for i := 0; i < o.Concurrency; i++ {
		go s.worker()
	}
	return s
}

// worker is one concurrency slot: it owns an arena reused across every job
// it runs, pulls from the queue until drained, and on the stop signal sweeps
// the remaining queued jobs before exiting.
func (s *Server) worker() {
	defer s.wg.Done()
	arena := mem.NewArena()
	for {
		select {
		case j := <-s.queue:
			s.execute(j, arena)
		case <-s.stop:
			// Drain: admission is already closed, so the queue can only
			// shrink; finish what is there and exit.
			for {
				select {
				case j := <-s.queue:
					s.execute(j, arena)
				default:
					return
				}
			}
		}
	}
}

// execute runs one dequeued job through its state machine. The pipeline
// itself runs inside runJob behind the panic barrier.
func (s *Server) execute(j *Job, arena *mem.Arena) {
	wait := time.Since(j.submitted)
	s.metrics.queueWait.Observe(wait.Seconds())
	if !j.setRunning(wait) {
		// Canceled while queued; the cancel handler already settled it, so
		// only the bookkeeping is left.
		s.metrics.finished(StateCanceled)
		s.retire(j.id)
		return
	}
	if err := j.ctx.Err(); err != nil {
		// The deadline (or the drain grace) expired while the job was
		// waiting in the queue: fail it without running anything.
		s.finishJob(j, core.Result{}, nil, fmt.Errorf("expired while queued: %w", err))
		return
	}
	s.metrics.running.Add(1)
	start := time.Now()
	res, arts, err := s.runJob(j, arena)
	s.metrics.running.Add(-1)
	s.metrics.runDur.Observe(time.Since(start).Seconds())
	s.finishJob(j, res, arts, err)
}

// jobArtifacts is what a successful run leaves for the fetch endpoints.
type jobArtifacts struct {
	partition  []byte // one block per line, the CLI -out encoding
	report     []byte // obs.Report JSON, the CLI -report encoding
	reportZero []byte // the same report after ZeroTimes (byte-comparable)
}

// runJob executes the pipeline for j, drawing scratch from the slot's
// arena. The deferred recover is the service's panic barrier: a panicking
// kernel surfaces as this job's error — with the panic value preserved —
// while the worker slot, the queue, and every other job keep going.
func (s *Server) runJob(j *Job, arena *mem.Arena) (res core.Result, arts *jobArtifacts, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.panics.Inc()
			arts = nil
			err = fmt.Errorf("job panicked: %v", r)
		}
	}()

	// The run's instrumentation is the CLI's -report/-metrics recorder, with
	// the pipeline metrics in the shared registry.
	rec := obs.NewRecorder(j.g, j.cfg, arena, s.opts.Registry)
	// The job's SSE stream: every trace event, rendered and sequenced, while
	// the run is still in flight.
	opts := append(rec.Options(), core.WithObserver(core.ObserverFunc(j.events.trace)))
	res, err = s.opts.run(j.ctx, j.g, j.cfg, opts...)
	if err != nil {
		return res, nil, err
	}

	rep := rec.Finish(res)
	arts = &jobArtifacts{partition: graphio.AppendPartition(nil, res.Blocks)}
	if arts.report, err = renderReport(rep); err != nil {
		return res, nil, err
	}
	rep.ZeroTimes()
	if arts.reportZero, err = renderReport(rep); err != nil {
		return res, nil, err
	}
	return res, arts, nil
}

// renderReport serializes a run report exactly as the CLI's -report flag
// does (Report.WriteTo: indented JSON plus a trailing newline).
func renderReport(rep *obs.Report) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := rep.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// finishJob settles a job's terminal state and updates the per-state
// metrics and the retention list.
func (s *Server) finishJob(j *Job, res core.Result, arts *jobArtifacts, err error) {
	state := StateDone
	switch {
	case err == nil:
	case j.cancelRequested.Load() && errors.Is(err, context.Canceled):
		state = StateCanceled
	default:
		state = StateFailed
	}
	// Counted and retired before finish wakes the job's waiters, so whoever
	// sees the job settle also sees it in the per-state metrics and the
	// retention list.
	s.metrics.finished(state)
	s.retire(j.id)
	j.finish(state, res, arts, err)
}

// retire records a finished job for retention and evicts the oldest
// finished jobs beyond the Retain bound.
func (s *Server) retire(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished = append(s.finished, id)
	for len(s.finished) > s.opts.Retain {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// retainedBytes sums what the retained finished jobs hold. A job counts from
// the moment it settles until it is evicted.
func (s *Server) retainedBytes() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, id := range s.finished {
		n += s.jobs[id].held.Load()
	}
	return float64(n)
}

// ErrDraining is returned (as a 503) to submissions arriving while the
// server is draining.
var ErrDraining = errors.New("svc: server is draining")

// ErrQueueFull is returned (as a 429) when the job queue is at capacity.
var ErrQueueFull = errors.New("svc: job queue is full")

// submit admits a prepared job: under the admission lock it re-checks the
// drain state and performs the non-blocking enqueue that is the
// admission-control decision. The job's deadline clock starts here. A
// refused job takes nothing: the caller still owns mapped.
func (s *Server) submit(g *graph.Graph, mapped *store.MappedGraph, cfg core.Config, timeout time.Duration) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	id := fmt.Sprintf("j%d", s.nextID+1)
	j := newJob(id, g, mapped, cfg, s.jobsCtx, timeout)
	select {
	case s.queue <- j:
	default:
		j.cancel()
		return nil, ErrQueueFull
	}
	s.nextID++
	s.jobs[id] = j
	s.metrics.submitted.Inc()
	return j, nil
}

// job looks up a job by id.
func (s *Server) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// isDraining reports whether the server has stopped admitting jobs.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// beginDrain flips the server into the draining state exactly once. After
// it returns, no submission can enqueue (the flag and every enqueue share
// the admission lock), so the workers' final queue sweep cannot miss a job.
func (s *Server) beginDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.draining {
		s.draining = true
		close(s.stop)
	}
}

// Drain gracefully shuts the service down: stop admitting (readiness flips
// to 503 immediately), let the queued and running jobs finish, and return
// when the pool is idle. If ctx expires first, every job still in flight is
// deadline-canceled, the pool is awaited, and ctx's error is returned —
// the job-level cancellation path the pipeline already honors, so even a
// hard drain leaves every job in a terminal state.
func (s *Server) Drain(ctx context.Context) error {
	s.beginDrain()
	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		s.jobsCancel()
		<-idle
		return ctx.Err()
	}
}

// Close shuts down immediately: admission stops, in-flight jobs are
// canceled, and the worker pool is awaited. Equivalent to Drain with an
// already-expired context.
func (s *Server) Close() {
	s.beginDrain()
	s.jobsCancel()
	s.wg.Wait()
}
