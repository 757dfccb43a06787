package svc

import "repro/internal/obs"

// serviceMetrics is the kappa_jobs_* catalog: per-state counters (so the
// lifecycle of every admitted job is visible as queued → running →
// done/failed/canceled), rejection counters split by reason, live gauges
// for queue depth, running jobs and the bytes retained jobs hold, and
// latency histograms for queue wait and run duration. The catalog is
// registered once per Server; registries must not be shared between Servers
// (the pull bindings are one-shot).
type serviceMetrics struct {
	submitted *obs.Counter
	running   *obs.Gauge
	done      *obs.Counter
	failed    *obs.Counter
	canceled  *obs.Counter
	rejected  *obs.CounterVec
	panics    *obs.Counter
	queueWait *obs.Histogram
	runDur    *obs.Histogram
}

// newServiceMetrics registers the catalog on r; queueLen and retained are
// pulled at every scrape for the live queue-depth and retained-bytes gauges.
func newServiceMetrics(r *obs.Registry, queueLen, retained func() float64) *serviceMetrics {
	m := &serviceMetrics{
		submitted: r.Counter("kappa_jobs_submitted_total",
			"Jobs admitted into the queue."),
		running: r.Gauge("kappa_jobs_running",
			"Jobs currently executing the pipeline."),
		done: r.Counter("kappa_jobs_done_total",
			"Jobs that finished successfully."),
		failed: r.Counter("kappa_jobs_failed_total",
			"Jobs that failed (pipeline error, deadline expiry, or panic)."),
		canceled: r.Counter("kappa_jobs_canceled_total",
			"Jobs canceled by the client before completion."),
		rejected: r.CounterVec("kappa_jobs_rejected_total",
			"Submissions refused at admission, by reason.", "reason"),
		panics: r.Counter("kappa_jobs_panics_total",
			"Jobs that panicked and were isolated by the job runner."),
		queueWait: r.Histogram("kappa_jobs_queue_wait_seconds",
			"Time admitted jobs spent waiting in the queue.", obs.TimeBuckets),
		runDur: r.Histogram("kappa_jobs_run_seconds",
			"Wall-clock of job execution (excludes queue wait).", obs.TimeBuckets),
	}
	r.GaugeVec("kappa_jobs_queued",
		"Jobs currently waiting in the queue.").Func(queueLen)
	r.GaugeVec("kappa_jobs_retained_bytes",
		"Bytes the retained finished jobs hold: partitions, reports and event payloads.").Func(retained)
	// Pre-create the rejection children so the series exist (at zero) from
	// the first scrape.
	m.rejected.With("queue_full")
	m.rejected.With("draining")
	m.rejected.With("invalid")
	return m
}

// finished counts a job's terminal state.
func (m *serviceMetrics) finished(state State) {
	switch state {
	case StateDone:
		m.done.Inc()
	case StateCanceled:
		m.canceled.Inc()
	default:
		m.failed.Inc()
	}
}

// reject counts an admission refusal. Reasons: "queue_full" (429),
// "draining" (503), "invalid" (400/413).
func (m *serviceMetrics) reject(reason string) {
	m.rejected.With(reason).Inc()
}
