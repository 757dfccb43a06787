package obs

import (
	"repro/internal/remote"
)

// Fault-tolerance observability: the coordinator's remote.Counters exposed
// as registry metrics (pull bindings, like the transport counters) and as a
// report section. obs imports remote — never the reverse — so the remote
// package stays observable without being instrumented.

// FaultReport is the run report's fault-tolerance section: nonzero fields
// mean the run survived something. Heartbeat counts are timing-dependent
// (how many intervals elapsed) and are zeroed by ZeroTimes; the rest —
// failures, reassignments, fallbacks, retries — is part of the run's
// deterministic outcome under a seeded fault schedule.
type FaultReport struct {
	WorkerFailures int64 `json:"worker_failures"`
	Reassignments  int64 `json:"reassignments"`
	LocalFallbacks int64 `json:"local_fallbacks"`
	LevelRetries   int64 `json:"level_retries"`
	HeartbeatsSent int64 `json:"heartbeats_sent"`
	HeartbeatsRecv int64 `json:"heartbeats_recv"`
	DoneFailures   int64 `json:"done_failures"`
}

// faultSection snapshots c into a report section; nil for a nil c, so
// reports of runs without a coordinator stay unchanged.
func faultSection(c *remote.Counters) *FaultReport {
	if c == nil {
		return nil
	}
	s := c.Snapshot()
	return &FaultReport{
		WorkerFailures: s.WorkerFailures,
		Reassignments:  s.Reassignments,
		LocalFallbacks: s.LocalFallbacks,
		LevelRetries:   s.LevelRetries,
		HeartbeatsSent: s.HeartbeatsSent,
		HeartbeatsRecv: s.HeartbeatsRecv,
		DoneFailures:   s.DoneFailures,
	}
}

// BindRemote registers pull bindings for the coordinator's fault-tolerance
// counters, mirroring BindTransport: scrapes observe failures, retries, and
// reassignments while the run is in flight.
func BindRemote(r *Registry, c *remote.Counters) {
	bind := func(name, help string, v func(remote.CounterSnapshot) int64) {
		r.CounterVec(name, help).Func(func() float64 { return float64(v(c.Snapshot())) })
	}
	bind("kappa_remote_worker_failures_total",
		"Workers the coordinator declared dead.",
		func(s remote.CounterSnapshot) int64 { return s.WorkerFailures })
	bind("kappa_remote_reassignments_total",
		"Orphaned PE shards reassigned to live workers.",
		func(s remote.CounterSnapshot) int64 { return s.Reassignments })
	bind("kappa_remote_local_fallbacks_total",
		"Times the coordinator took over all remaining shards.",
		func(s remote.CounterSnapshot) int64 { return s.LocalFallbacks })
	bind("kappa_remote_level_retries_total",
		"Contraction levels re-run after a worker failure.",
		func(s remote.CounterSnapshot) int64 { return s.LevelRetries })
	bind("kappa_remote_heartbeats_sent_total",
		"Heartbeat frames the coordinator sent to workers.",
		func(s remote.CounterSnapshot) int64 { return s.HeartbeatsSent })
	bind("kappa_remote_heartbeats_recv_total",
		"Heartbeat frames the coordinator received from workers.",
		func(s remote.CounterSnapshot) int64 { return s.HeartbeatsRecv })
	bind("kappa_remote_done_failures_total",
		"Final-partition broadcasts that failed (non-fatal).",
		func(s remote.CounterSnapshot) int64 { return s.DoneFailures })
}
