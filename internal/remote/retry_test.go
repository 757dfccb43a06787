package remote

import (
	"testing"
	"time"

	"repro/internal/rng"
)

// TestBackoffBounds pins the retry spacing: the wait after attempt i lies in
// [d/2, d) with d = Backoff·2^(i-1), capped at 16×Backoff from attempt 5 on;
// no base delay means no wait.
func TestBackoffBounds(t *testing.T) {
	p := RetryPolicy{Backoff: 3*time.Millisecond + 1}
	r := rng.NewStream(1, 0)
	for attempt := 1; attempt <= 9; attempt++ {
		d := p.Backoff << min(attempt-1, 4)
		for range 200 {
			if got := p.backoff(r, attempt); got < d/2 || got >= d {
				t.Fatalf("attempt %d waits %v, outside [%v, %v)", attempt, got, d/2, d)
			}
		}
	}
	if got := (RetryPolicy{}).backoff(r, 3); got != 0 {
		t.Fatalf("zero Backoff waits %v", got)
	}
}
