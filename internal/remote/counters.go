package remote

import "sync/atomic"

// (The coordinator always allocates a Counters when the caller passes none,
// so its own increments never need nil checks; Snapshot stays nil-safe for
// external readers.)

// Counters is the coordinator's fault-tolerance ledger: how many workers it
// declared dead, how their shards were recovered, how much liveness
// traffic flowed, and how many levels it kept to itself. All fields are atomics — the heartbeater, the supervision
// loop, and metric pull callbacks (obs.BindRemote) touch them concurrently.
// A nil *Counters is accepted everywhere and counts nothing.
type Counters struct {
	WorkerFailures atomic.Int64 // workers declared dead (I/O error or deadline expiry)
	Reassignments  atomic.Int64 // orphaned PE shards moved to a live worker
	LocalFallbacks atomic.Int64 // times the coordinator took over all remaining shards
	LevelRetries   atomic.Int64 // contraction levels re-run after a failure
	HeartbeatsSent atomic.Int64 // coordinator → worker heartbeat frames
	HeartbeatsRecv atomic.Int64 // worker → coordinator heartbeat frames
	DoneFailures   atomic.Int64 // final-partition broadcasts that failed (non-fatal)
	ShardsStreamed atomic.Int64 // level-0 shard files spliced to workers without decoding (ServeStore)
	FoldedLevels   atomic.Int64 // levels below the fold floor, run on the coordinator instead of shipped
}

// CounterSnapshot is a plain-value copy of Counters, for reports.
type CounterSnapshot struct {
	WorkerFailures int64
	Reassignments  int64
	LocalFallbacks int64
	LevelRetries   int64
	HeartbeatsSent int64
	HeartbeatsRecv int64
	DoneFailures   int64
	ShardsStreamed int64
	FoldedLevels   int64
}

// Snapshot copies the current counter values; nil-safe (all zeros).
func (c *Counters) Snapshot() CounterSnapshot {
	if c == nil {
		return CounterSnapshot{}
	}
	return CounterSnapshot{
		WorkerFailures: c.WorkerFailures.Load(),
		Reassignments:  c.Reassignments.Load(),
		LocalFallbacks: c.LocalFallbacks.Load(),
		LevelRetries:   c.LevelRetries.Load(),
		HeartbeatsSent: c.HeartbeatsSent.Load(),
		HeartbeatsRecv: c.HeartbeatsRecv.Load(),
		DoneFailures:   c.DoneFailures.Load(),
		ShardsStreamed: c.ShardsStreamed.Load(),
		FoldedLevels:   c.FoldedLevels.Load(),
	}
}
