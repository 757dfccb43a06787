package main

// tracedMetrics derives the per-layer metrics that come from watching the
// ops themselves: spans built from event arrivals, the counter sinks the
// traced ops attached, and the service's status JSON. Times are means per
// traced op. Counts are taken over the traced ops of the first cycle only —
// the same ops on every run of the seed, so they repeat exactly however many
// ops the timed section had room for.
func tracedMetrics(m metricSet, ops []opRecord, spans []span, wall float64, cycle int) {
	var traced, fixed []opRecord
	for _, r := range ops {
		if r.tr == nil || r.Error != "" {
			continue
		}
		traced = append(traced, r)
		if r.Index < cycle {
			fixed = append(fixed, r)
		}
	}
	if len(traced) == 0 {
		return
	}
	n := float64(len(traced))

	m["core.coarsen_s"] = spanSum(spans, "core.coarsen") / n
	m["core.init_s"] = spanSum(spans, "core.init") / n
	m["core.refine_s"] = spanSum(spans, "core.refine") / n
	m["core.level0_s"] = (spanSum(spans, "core.level0") + spanSum(spans, "core.refine_finest")) / n
	self := selfTimes(spans)
	for i, s := range spans {
		if s.Parent < 0 {
			m["core.op_self_s"] += self[i] / n
		}
	}

	nf := float64(len(fixed))
	for _, r := range fixed {
		t := r.tr
		m["core.levels"] += float64(t.levels) / nf
		m["core.refine_iters"] += float64(t.refineIters) / nf
		m["core.init_cut"] += float64(t.initCut) / nf
		if st := t.arenaStats; st != nil {
			m["mem.arena_reuse_ratio"] += ratio(float64(st.Reused), float64(st.Borrows)) / nf
			m["mem.arena_alloc_mb"] += float64(st.AllocatedBytes) / 1e6 / nf
		}
		// The hub counts each PE's traffic from that PE's side; every PE
		// takes part in every superstep.
		for pe, p := range t.transport {
			m["dist.bytes_per_op"] += float64(p.BytesSent+p.BytesRecv) / nf
			if pe == 0 {
				m["dist.supersteps_per_op"] += float64(p.Supersteps) / nf
			}
		}
		if c := t.remote; c != nil {
			m["remote.shards_streamed_per_op"] += float64(c.ShardsStreamed) / nf
			m["remote.level_retries"] += float64(c.LevelRetries) / nf
			m["remote.worker_failures"] += float64(c.WorkerFailures) / nf
			m["remote.local_fallbacks"] += float64(c.LocalFallbacks) / nf
		}
	}

	// The service, from its clients' side. A traced op that was refused
	// carries an error and is not in traced; refusals are counted over all.
	var submit, fetch, queue, run, overhead, all []float64
	for _, r := range ops {
		all = append(all, r.Ref)
		if r.tr != nil && r.tr.svc.rejectedSubmit {
			m["svc.rejected"]++
		}
	}
	for _, r := range traced {
		s := r.tr.svc
		if s.events == 0 {
			continue
		}
		submit = append(submit, s.submit)
		fetch = append(fetch, s.fetch)
		queue = append(queue, s.queue)
		run = append(run, s.run)
		overhead = append(overhead, r.Seconds-s.queue-s.run)
		m["svc.result_bytes_per_op"] += float64(s.bytes) / n
		m["svc.sse_events_per_op"] += float64(s.events) / n
	}
	if len(submit) > 0 {
		m["svc.submit_p50_s"] = median(submit)
		m["svc.fetch_p50_s"] = median(fetch)
		m["svc.queue_wait_p50_s"] = median(queue)
		m["svc.queue_wait_p95_s"] = quantile(queue, 0.95)
		m["svc.run_p50_s"] = median(run)
		m["svc.overhead_p50_s"] = median(overhead)
		m["svc.jobs_per_s"] = float64(len(ops)) / wall
		// Only this workload has enough ops for a 95th percentile with ten
		// samples beyond it.
		m["svc.op_p95_s"] = quantile(all, 0.95)
	}
}
