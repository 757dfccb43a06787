package remote

import (
	"time"

	"repro/internal/rng"
)

// RetryPolicy governs a worker's connection attempts: how often to retry the
// dial + handshake, how long each attempt may take, and how to space the
// attempts. Backoff is exponential with equal jitter — with d =
// Backoff·2^(i-1) capped at 16×Backoff, attempt i waits uniformly in
// [d/2, d) — drawn from the repo's deterministic rng stream, so a fixed
// Seed reproduces the exact retry timeline in tests while distinct workers
// (distinct seeds) still desynchronize their retries in production,
// avoiding reconnect stampedes after a coordinator restart.
type RetryPolicy struct {
	Attempts int           // total attempts; <= 1 means a single try
	Timeout  time.Duration // per-attempt bound on dial + assignment; 0 = none
	Backoff  time.Duration // base delay before the second attempt
	Seed     uint64        // jitter stream seed
}

// backoff returns the delay before attempt (2-based: the wait after failed
// attempt i uses backoff(rng, i)).
func (p RetryPolicy) backoff(r *rng.RNG, attempt int) time.Duration {
	if p.Backoff <= 0 {
		return 0
	}
	d := p.Backoff
	for i := 1; i < attempt && d < 16*p.Backoff; i++ {
		d *= 2
	}
	// Equal jitter: d/2 plus a uniform half, i.e. uniform in [d/2, d).
	// The floor keeps sleeps non-zero, so "retried" and "never waited"
	// stay distinguishable in tests.
	return time.Duration(float64(d)*r.Float64())/2 + d/2
}
