// White-box tests for the coordinator's outcome accounting — invariants of
// unexported machinery that the black-box fault harness cannot pin directly.
package remote

import (
	"bufio"
	"context"
	"errors"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/wire"
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
	w := &workerConn{ctrlConn: ctrlConn{conn: c1, br: bufio.NewReader(c1)}, id: 0, hosted: []int{0, 1}}
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
		_, _, _, _, err := co.remoteLevel(nil, g, &cfg, make([]int32, g.NumNodes()), 0, 0)
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

// TestReassignedWorkerKeepsScratchPerPE kills one of two workers while it
// sends its first level result, so the survivor is handed the orphaned shard
// and from then on runs both PEs' kernels side by side in one process — the
// only time two kernels of one worker are live at once. Each must draw from
// its own arena: the scratch is indexed by PE, so the arena the survivor
// warmed for its first PE is not the one the adopted PE gets. `make race`
// runs this under the race detector, which watches the two kernels share the
// session; the partition must still be the healthy run's.
func TestReassignedWorkerKeepsScratchPerPE(t *testing.T) {
	g := gen.Grid2D(40, 40)
	cfg := core.NewConfig(core.Fast, 4)
	cfg.Seed = 99
	cfg.PEs = 2
	cfg.Coarsen = core.CoarsenDistributed
	want, err := core.Run(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	sched, err := dist.ParseFaultSchedule("ctrl:write:2:kill")
	if err != nil {
		t.Fatal(err)
	}
	sessions := make([]*workSession, 2)
	werrs := make([]error, 2)
	var wg sync.WaitGroup
	for i, wo := range []WorkOptions{{Faults: sched}, {}} {
		wo.onSession = func(w *workSession) { sessions[i] = w }
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, werrs[i] = WorkWith(ctx, "tcp", ln.Addr().String(), wo)
		}()
	}
	counters := &Counters{}
	res, err := ServeWith(ctx, ln, g, cfg, ServeOptions{WorkerTimeout: 10 * time.Second, Counters: counters})
	wg.Wait()
	if err != nil {
		t.Fatalf("Serve did not survive the worker kill: %v", err)
	}
	if res.Cut != want.Cut || !slices.Equal(res.Blocks, want.Blocks) {
		t.Fatalf("recovered partition diverged from healthy run: cut %d vs %d", res.Cut, want.Cut)
	}
	if werrs[0] == nil || werrs[1] != nil {
		t.Fatalf("worker errors %v: want the first dead and the second alive", werrs)
	}
	if s := counters.Snapshot(); s.Reassignments != 1 || s.LocalFallbacks != 0 {
		t.Fatalf("%d reassignments, %d local fallbacks; want the survivor to adopt the one orphaned PE", s.Reassignments, s.LocalFallbacks)
	}
	w := sessions[1]
	if len(w.hosted) != 2 {
		t.Fatalf("survivor hosts %v, want both PEs", w.hosted)
	}
	if w.scratch[0] == nil || w.scratch[1] == nil || w.scratch[0] == w.scratch[1] {
		t.Fatalf("survivor's scratch %p and %p: want one arena per hosted PE", w.scratch[0], w.scratch[1])
	}
	for pe, a := range w.scratch {
		if a.Stats().Borrows == 0 {
			t.Errorf("PE %d's kernel never drew from its arena", pe)
		}
	}
}

// TestServeSurvivesInconsistentResult runs a level against a worker that
// answers its first job with a well-formed result whose map does not fit the
// level: one fine node goes to a coarse node past the coarse graph. Every
// byte of the frame decodes; contracting the level by that map would index
// past the coarse arrays on the pipeline goroutine. The stitch refuses it
// instead, as its worker's failure: the worker is declared dead, the survivor
// adopts its PE, the level reruns, and the partition is the healthy run's.
func TestServeSurvivesInconsistentResult(t *testing.T) {
	g := gen.Grid2D(40, 40)
	cfg := core.NewConfig(core.Fast, 4)
	cfg.Seed = 7
	cfg.PEs = 2
	cfg.Coarsen = core.CoarsenDistributed
	want, err := core.Run(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// The rogue: the real handshake and the real kernels, one id overwritten.
	rogue := make(chan error, 1)
	go func() {
		rogue <- editingWorker(ctx, addr, func(r *wire.Result) { r.Part.FineCoarse[0] = 1 << 30 })
	}()
	honest := make(chan error, 1)
	go func() {
		_, err := WorkWith(ctx, "tcp", addr, WorkOptions{})
		honest <- err
	}()

	counters := &Counters{}
	res, err := ServeWith(ctx, ln, g, cfg, ServeOptions{WorkerTimeout: 10 * time.Second, Counters: counters})
	if err != nil {
		t.Fatalf("Serve did not survive the inconsistent result: %v", err)
	}
	if err := <-rogue; err != nil {
		t.Fatalf("rogue worker: %v", err)
	}
	if err := <-honest; err != nil {
		t.Fatalf("honest worker: %v", err)
	}
	if res.Cut != want.Cut || !slices.Equal(res.Blocks, want.Blocks) {
		t.Fatalf("recovered partition diverged from healthy run: cut %d vs %d", res.Cut, want.Cut)
	}
	if s := counters.Snapshot(); s.WorkerFailures != 1 || s.Reassignments != 1 || s.LevelRetries != 1 || s.LocalFallbacks != 0 {
		t.Fatalf("%+v: want one worker failed, its PE reassigned, one level retried", s)
	}
}

// editingWorker is a worker that runs the real handshake and the real kernels
// but passes every result through edit before it ships it. It returns nil
// when the coordinator hangs up or ends the session.
func editingWorker(ctx context.Context, addr string, edit func(*wire.Result)) error {
	conn, br, assign, err := dialControl(ctx, "tcp", addr, WorkOptions{}, func(net.Conn) {})
	if err != nil {
		return err
	}
	defer conn.Close()
	tr := dist.NewSocketTransport(assign.PEs, wire.MsgCodec{})
	defer tr.Close()
	if err := tr.Dial("tcp", addr, assign.PE); err != nil {
		return err
	}
	for {
		kind, payload, err := wire.ReadFrame(br)
		if err != nil || kind == wire.KindDone {
			return nil
		}
		if kind != wire.KindJob {
			return errors.New("worker was sent something other than a job")
		}
		job, err := wire.DecodeJob(payload)
		if err != nil {
			return err
		}
		res, err := runLevel(tr, assign, job, nil)
		if err != nil {
			return err
		}
		edit(&res)
		if err := wire.WriteFrame(conn, wire.KindResult, wire.AppendResult(wire.NewFrame(0), res)); err != nil {
			return err
		}
	}
}

// TestRemoteLevelCountsStitch serves a run to workers that report no kernel
// time at all. The coordinator contracts each level itself, in the stitch, so
// every level it pushes must still report a contraction time, as an
// in-process level does.
func TestRemoteLevelCountsStitch(t *testing.T) {
	g := gen.RGG(10, 1)
	cfg := core.NewConfig(core.Fast, 4)
	cfg.Seed = 7
	cfg.PEs = 2
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	werrs := make(chan error, 2)
	for range 2 {
		go func() {
			werrs <- editingWorker(ctx, ln.Addr().String(), func(r *wire.Result) { r.MatchNanos, r.ContractNanos = 0, 0 })
		}()
	}
	var levels []core.LevelEvent
	res, err := ServeWith(ctx, ln, g, cfg, ServeOptions{}, core.WithObserver(core.ObserverFunc(func(ev core.TraceEvent) {
		if le, ok := ev.(core.LevelEvent); ok {
			levels = append(levels, le)
		}
	})))
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if err := <-werrs; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	if len(levels) == 0 || len(levels) != res.Levels {
		t.Fatalf("saw %d LevelEvents for %d levels", len(levels), res.Levels)
	}
	for _, le := range levels {
		if le.Contract <= 0 {
			t.Errorf("level %d reports contraction time %v", le.Level, le.Contract)
		}
	}
}
