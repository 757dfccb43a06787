// White-box tests for the coordinator's outcome accounting — invariants of
// unexported machinery that the black-box fault harness cannot pin directly.
package remote

import (
	"bufio"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
)

// TestRemoteLevelMidBatchJobFailure pins the outcome accounting of a job
// write that fails partway through a worker hosting several PEs — the normal
// state after a reassignment. Every hosted PE must yield exactly one outcome
// even when some jobs were never sent; the collector waits for pes outcomes,
// so a short count hangs the level (and Serve) forever. Regression test for
// the lazily-populated pending set that dropped the unsent PEs.
func TestRemoteLevelMidBatchJobFailure(t *testing.T) {
	c1, c2 := net.Pipe()
	c2.Close() // every write on c1 now fails immediately
	w := &workerConn{id: 0, conn: c1, br: bufio.NewReader(c1), hosted: []int{0, 1}}
	deadW := &workerConn{id: 1}
	deadW.dead.Store(true)

	co := &coordinator{
		pes:      2,
		counters: &Counters{},
		workers:  []*workerConn{w, deadW},
		owner:    []int{0, 0},
		hub:      dist.NewSocketHub(2),
	}
	cfg := core.NewConfig(core.Fast, 2)
	cfg.PEs = 2
	g := gen.Grid2D(8, 8)

	done := make(chan error, 1)
	go func() {
		_, _, _, _, err := co.remoteLevel(g, &cfg, make([]int32, g.NumNodes()), 0, 0)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("remoteLevel succeeded over a closed control connection")
		}
		var we *WorkerError
		if !errors.As(err, &we) {
			t.Fatalf("error %v is not a *WorkerError", err)
		}
		if we.Phase != "job" {
			t.Fatalf("WorkerError phase %q, want \"job\"", we.Phase)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("remoteLevel hung: a mid-batch job failure did not drain every hosted PE")
	}
}
