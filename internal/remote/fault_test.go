// The deterministic fault-injection harness: every test runs the full
// coordinator/worker protocol over localhost TCP with a seeded fault
// schedule on one (or every) worker and asserts the recovered partition is
// byte-identical to the undisturbed in-process run — the acceptance property
// of the fault-tolerant backend. The cmd/kappa chaos test replays the same
// schedules across real OS processes.
package remote_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/remote"
	"repro/internal/wire"
)

// workerRun is one worker goroutine's outcome.
type workerRun struct {
	res remote.WorkResult
	err error
}

// runServeFaulty runs a coordinator with so and len(wos) workers, each with
// its own options (fault schedules, retries, heartbeats). Worker errors are
// returned, not failed on — dying is the point of these tests.
func runServeFaulty(t *testing.T, g *graph.Graph, cfg core.Config, so remote.ServeOptions, wos []remote.WorkOptions) (core.Result, error, []workerRun) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serveFaultyOn(ln, g, cfg, so, wos)
}

// serveFaultyOn is runServeFaulty on a listener of the caller's.
func serveFaultyOn(ln net.Listener, g *graph.Graph, cfg core.Config, so remote.ServeOptions, wos []remote.WorkOptions) (core.Result, error, []workerRun) {
	addr := ln.Addr().String()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	outs := make([]workerRun, len(wos))
	var wg sync.WaitGroup
	for i, wo := range wos {
		wg.Add(1)
		go func(i int, wo remote.WorkOptions) {
			defer wg.Done()
			outs[i].res, outs[i].err = remote.WorkWith(ctx, "tcp", addr, wo)
		}(i, wo)
	}
	res, serr := remote.ServeWith(ctx, ln, g, cfg, so)
	wg.Wait()
	return res, serr, outs
}

// inProcess runs the undisturbed baseline the recovered runs must match.
func inProcess(t *testing.T, g *graph.Graph, cfg core.Config) core.Result {
	t.Helper()
	want, err := core.Run(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// schedule parses a fault-schedule string or fails the test.
func schedule(t *testing.T, s string) *dist.FaultSchedule {
	t.Helper()
	sched, err := dist.ParseFaultSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// TestServeSurvivesWorkerKill is the tentpole pin: one of three workers is
// killed mid-coarsening (its control connection dies while sending its first
// level result), the coordinator reassigns the orphaned shard to a survivor,
// retries the level, and the final partition is byte-identical to the
// healthy run. The worker's arrival order (hence its PE) is scheduling-
// dependent; the recovered bytes must not be.
func TestServeSurvivesWorkerKill(t *testing.T) {
	g := gen.Grid2D(40, 40)
	cfg := core.NewConfig(core.Fast, 6)
	cfg.Seed = 4242
	cfg.PEs = 3
	cfg.Coarsen = core.CoarsenDistributed
	want := inProcess(t, g, cfg)

	sched := schedule(t, "ctrl:write:2:kill")
	counters := &remote.Counters{}
	so := remote.ServeOptions{WorkerTimeout: 10 * time.Second, Counters: counters}
	wos := []remote.WorkOptions{{Faults: sched}, {}, {}}

	res, serr, outs := runServeFaulty(t, g, cfg, so, wos)
	if serr != nil {
		t.Fatalf("Serve did not survive the worker kill: %v", serr)
	}
	if n := sched.Injected(); n != 1 {
		t.Fatalf("schedule injected %d faults, want 1", n)
	}
	if res.Cut != want.Cut || !reflect.DeepEqual(res.Blocks, want.Blocks) {
		t.Fatalf("recovered partition diverged from healthy run: cut %d vs %d", res.Cut, want.Cut)
	}
	s := counters.Snapshot()
	if s.WorkerFailures != 1 {
		t.Errorf("WorkerFailures = %d, want 1", s.WorkerFailures)
	}
	if s.Reassignments != 1 {
		t.Errorf("Reassignments = %d, want 1 (the victim's single PE)", s.Reassignments)
	}
	if s.LevelRetries < 1 {
		t.Errorf("LevelRetries = %d, want >= 1", s.LevelRetries)
	}
	if s.LocalFallbacks != 0 {
		t.Errorf("LocalFallbacks = %d, want 0 (two workers survived)", s.LocalFallbacks)
	}
	// The victim is dead by the final broadcast: skipping it is non-fatal —
	// the "worker dies after the final result" error path.
	if s.DoneFailures != 1 {
		t.Errorf("DoneFailures = %d, want 1", s.DoneFailures)
	}
	victims, survivors := 0, 0
	for i, o := range outs {
		if o.err != nil {
			victims++
			continue
		}
		survivors++
		if !reflect.DeepEqual(o.res.Partition, want.Blocks) {
			t.Errorf("surviving worker %d received a different final partition", i)
		}
	}
	if victims != 1 || survivors != 2 {
		t.Fatalf("%d workers died, %d survived; want 1 and 2", victims, survivors)
	}
}

// TestServeSurvivesTransportFault covers the transient-fault path: a
// transport connection dies mid-superstep but every worker process survives.
// The level aborts collectively (each worker answers with a level-aborted
// frame), the rebuild re-dials everything, and the retry succeeds with zero
// worker failures.
func TestServeSurvivesTransportFault(t *testing.T) {
	g := gen.Grid2D(40, 40)
	cfg := core.NewConfig(core.Fast, 6)
	cfg.Seed = 4242
	cfg.PEs = 3
	cfg.Coarsen = core.CoarsenDistributed
	want := inProcess(t, g, cfg)

	// The victim's PE depends on arrival order, so arm one rule per possible
	// transport label; exactly one can ever match.
	sched := schedule(t, "pe0:write:4:kill;pe1:write:4:kill;pe2:write:4:kill")
	counters := &remote.Counters{}
	so := remote.ServeOptions{WorkerTimeout: 10 * time.Second, Counters: counters}
	wos := []remote.WorkOptions{{Faults: sched}, {}, {}}

	res, serr, outs := runServeFaulty(t, g, cfg, so, wos)
	if serr != nil {
		t.Fatalf("Serve did not survive the transport fault: %v", serr)
	}
	if n := sched.Injected(); n != 1 {
		t.Fatalf("schedule injected %d faults, want 1", n)
	}
	if res.Cut != want.Cut || !reflect.DeepEqual(res.Blocks, want.Blocks) {
		t.Fatalf("recovered partition diverged from healthy run: cut %d vs %d", res.Cut, want.Cut)
	}
	s := counters.Snapshot()
	if s.WorkerFailures != 0 {
		t.Errorf("WorkerFailures = %d, want 0 (every process survived)", s.WorkerFailures)
	}
	if s.Reassignments != 0 {
		t.Errorf("Reassignments = %d, want 0", s.Reassignments)
	}
	if s.LevelRetries < 1 {
		t.Errorf("LevelRetries = %d, want >= 1", s.LevelRetries)
	}
	for i, o := range outs {
		if o.err != nil {
			t.Errorf("worker %d died of a transport-only fault: %v", i, o.err)
		} else if !reflect.DeepEqual(o.res.Partition, want.Blocks) {
			t.Errorf("worker %d received a different final partition", i)
		}
	}
}

// TestServeSurvivesStalledWorker covers deadline-based detection: the victim
// does not crash, it goes silent (a long injected delay while sending its
// result). Only the read deadline can notice; the coordinator declares it
// dead and recovers as if it had crashed.
func TestServeSurvivesStalledWorker(t *testing.T) {
	g := gen.Grid2D(32, 32)
	cfg := core.NewConfig(core.Fast, 4)
	cfg.Seed = 99
	cfg.PEs = 2
	cfg.Coarsen = core.CoarsenDistributed
	want := inProcess(t, g, cfg)

	sched := schedule(t, "ctrl:write:2:delay:2s")
	counters := &remote.Counters{}
	so := remote.ServeOptions{WorkerTimeout: 500 * time.Millisecond, Counters: counters}
	wos := []remote.WorkOptions{{Faults: sched}, {}}

	res, serr, outs := runServeFaulty(t, g, cfg, so, wos)
	if serr != nil {
		t.Fatalf("Serve did not survive the stalled worker: %v", serr)
	}
	if res.Cut != want.Cut || !reflect.DeepEqual(res.Blocks, want.Blocks) {
		t.Fatalf("recovered partition diverged from healthy run: cut %d vs %d", res.Cut, want.Cut)
	}
	s := counters.Snapshot()
	if s.WorkerFailures != 1 {
		t.Errorf("WorkerFailures = %d, want 1", s.WorkerFailures)
	}
	victims := 0
	for _, o := range outs {
		if o.err != nil {
			victims++
		}
	}
	if victims != 1 {
		t.Fatalf("%d workers died, want exactly the stalled one", victims)
	}
}

// TestServeLocalFallback kills every worker: with nobody left to reassign
// to, the coordinator must finish the remaining levels itself — same
// kernels over the in-process Exchanger, so still byte-identical.
func TestServeLocalFallback(t *testing.T) {
	g := gen.Grid2D(32, 32)
	cfg := core.NewConfig(core.Fast, 4)
	cfg.Seed = 99
	cfg.PEs = 2
	cfg.Coarsen = core.CoarsenDistributed
	want := inProcess(t, g, cfg)

	counters := &remote.Counters{}
	so := remote.ServeOptions{WorkerTimeout: 10 * time.Second, Counters: counters}
	wos := []remote.WorkOptions{
		{Faults: schedule(t, "ctrl:write:2:kill")},
		{Faults: schedule(t, "ctrl:write:2:kill")},
	}

	res, serr, outs := runServeFaulty(t, g, cfg, so, wos)
	if serr != nil {
		t.Fatalf("Serve did not degrade to local execution: %v", serr)
	}
	if res.Cut != want.Cut || !reflect.DeepEqual(res.Blocks, want.Blocks) {
		t.Fatalf("degraded partition diverged from healthy run: cut %d vs %d", res.Cut, want.Cut)
	}
	s := counters.Snapshot()
	if s.WorkerFailures != 2 {
		t.Errorf("WorkerFailures = %d, want 2", s.WorkerFailures)
	}
	if s.LocalFallbacks != 1 {
		t.Errorf("LocalFallbacks = %d, want 1", s.LocalFallbacks)
	}
	if s.DoneFailures != 2 {
		t.Errorf("DoneFailures = %d, want 2 (nobody left to broadcast to)", s.DoneFailures)
	}
	for i, o := range outs {
		if o.err == nil {
			t.Errorf("worker %d survived its own kill schedule", i)
		}
	}
}

// TestServeWorkerDiesMidHandshake pins the typed error of an incomplete
// handshake: a worker claims a PE over the control channel and dies before
// dialing its transport connection, so the worker set never completes and
// Serve fails with a *WorkerError in the handshake phase once the listener
// deadline expires.
func TestServeWorkerDiesMidHandshake(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.NewConfig(core.Fast, 4)
	cfg.PEs = 2

	done := make(chan error, 1)
	go func() {
		_, err := remote.ServeWith(context.Background(), ln, gen.RGG(8, 1), cfg,
			remote.ServeOptions{WorkerTimeout: 250 * time.Millisecond})
		done <- err
	}()

	// Half a handshake: control hello, read the assignment, hang up.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := dist.WriteHello(conn, dist.Hello{Role: dist.RoleControl, PE: -1}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	conn.Read(buf)
	conn.Close()

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Serve returned nil with an incomplete worker set")
		}
		var we *remote.WorkerError
		if !errors.As(err, &we) {
			t.Fatalf("error %v is not a *WorkerError", err)
		}
		if we.Phase != "handshake" {
			t.Fatalf("WorkerError phase %q, want \"handshake\"", we.Phase)
		}
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("error %v does not wrap os.ErrDeadlineExceeded", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Serve hung on an incomplete handshake")
	}
}

// TestServeHandshakeRetry: the worker's first connection attempt dies before
// the hello reaches the coordinator; with a retry policy the second attempt
// succeeds and the run completes normally. The coordinator treats the dead
// first connection like any port probe: drop and keep waiting.
func TestServeHandshakeRetry(t *testing.T) {
	g := gen.Grid2D(16, 16)
	cfg := core.NewConfig(core.Fast, 4)
	cfg.Seed = 7
	cfg.PEs = 2
	cfg.Coarsen = core.CoarsenDistributed
	want := inProcess(t, g, cfg)

	sched := schedule(t, "ctrl:write:1:kill")
	wos := []remote.WorkOptions{
		{
			Retry:  remote.RetryPolicy{Attempts: 3, Backoff: time.Millisecond, Seed: 7},
			Faults: sched,
		},
		{},
	}
	res, serr, outs := runServeFaulty(t, g, cfg, remote.ServeOptions{}, wos)
	if serr != nil {
		t.Fatalf("Serve: %v", serr)
	}
	if outs[0].err != nil {
		t.Fatalf("worker did not recover via handshake retry: %v", outs[0].err)
	}
	if n := sched.Injected(); n != 1 {
		t.Fatalf("schedule injected %d faults, want 1", n)
	}
	if res.Cut != want.Cut || !reflect.DeepEqual(res.Blocks, want.Blocks) {
		t.Fatalf("partition diverged after handshake retry: cut %d vs %d", res.Cut, want.Cut)
	}
}

// TestServeDropsStrayHellos hands the coordinator's accept loop a stray
// connection at the two points where it waits for workers: in the handshake,
// once both PEs have a worker and a transport connection is still due, and
// in the rebuild after a worker kill, once the survivor has re-dialed the
// first of its two transport connections. Each stray (a probe that hangs up
// without a hello, a surplus control hello, a transport hello for a PE the
// run does not have or one that has already arrived) must be closed while
// the wait goes on, and the run must end in the in-process bytes.
func TestServeDropsStrayHellos(t *testing.T) {
	g := gen.Grid2D(24, 24)
	cfg := core.NewConfig(core.Fast, 4)
	cfg.Seed = 31
	cfg.PEs = 2
	cfg.Coarsen = core.CoarsenDistributed
	want := inProcess(t, g, cfg)

	probe := dist.Hello{Role: 0xff}
	control := dist.Hello{Role: dist.RoleControl, PE: -1}
	outOfRange := dist.Hello{Role: dist.RoleTransport, PE: cfg.PEs}
	duplicate := dist.Hello{Role: dist.RoleTransport, PE: -2} // the PE that just arrived
	for _, tc := range []struct {
		name    string
		rebuild bool
		stray   dist.Hello
	}{
		{"handshake/probe", false, probe},
		{"handshake/control", false, control},
		{"handshake/out-of-range-transport", false, outOfRange},
		{"rebuild/probe", true, probe},
		{"rebuild/control", true, control},
		{"rebuild/out-of-range-transport", true, outOfRange},
		{"rebuild/duplicate-transport", true, duplicate},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inner, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			ln := &strayListener{Listener: inner, pes: cfg.PEs, rebuild: tc.rebuild, stray: tc.stray}
			wos := []remote.WorkOptions{{}, {}}
			if tc.rebuild {
				wos[0].Faults = schedule(t, "ctrl:write:2:kill")
			}
			res, serr, outs := serveFaultyOn(ln, g, cfg, remote.ServeOptions{WorkerTimeout: 10 * time.Second}, wos)
			if serr != nil {
				t.Fatalf("Serve: %v", serr)
			}
			if !ln.sent {
				t.Fatal("the stray was never handed to the accept loop")
			}
			if outs[1].err != nil {
				t.Fatalf("healthy worker: %v", outs[1].err)
			}
			if res.Cut != want.Cut || !reflect.DeepEqual(res.Blocks, want.Blocks) {
				t.Fatalf("partition diverged from the in-process run: cut %d vs %d", res.Cut, want.Cut)
			}
		})
	}
}

// strayListener passes its listener's connections through, reading each
// one's hello and replaying it, and queues one stray connection for the
// accept loop: in the handshake after the pes-th control hello, or in a
// rebuild after the first transport hello beyond the handshake's pes. A
// stray with Role 0xff is a probe that hangs up at once; a transport stray
// with PE -2 repeats the PE that just arrived.
type strayListener struct {
	net.Listener
	pes                  int
	rebuild              bool
	stray                dist.Hello
	controls, transports int
	queued               net.Conn
	sent                 bool
}

func (l *strayListener) Accept() (net.Conn, error) {
	if c := l.queued; c != nil {
		l.queued, l.sent = nil, true
		return c, nil
	}
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	br := bufio.NewReader(conn)
	hello, err := dist.ReadHello(br)
	if err != nil {
		return conn, nil
	}
	var replay bytes.Buffer
	dist.WriteHello(&replay, hello)
	switch hello.Role {
	case dist.RoleControl:
		l.controls++
		if !l.rebuild && l.controls == l.pes {
			l.queue(hello.PE)
		}
	case dist.RoleTransport:
		l.transports++
		if l.rebuild && l.transports == l.pes+1 {
			l.queue(hello.PE)
		}
	}
	return replayConn{conn, io.MultiReader(&replay, br)}, nil
}

// queue makes the stray the next connection Accept returns; arrived is the
// PE of the hello that just passed through.
func (l *strayListener) queue(arrived int) {
	coord, peer := net.Pipe()
	l.queued = coord
	h := l.stray
	if h.PE == -2 {
		h.PE = arrived
	}
	go func() {
		if h.Role != 0xff {
			dist.WriteHello(peer, h)
			io.Copy(io.Discard, peer) // an Assign, at most, until the coordinator hangs up
		}
		peer.Close()
	}()
}

// replayConn is a connection whose reads come from r.
type replayConn struct {
	net.Conn
	r io.Reader
}

func (c replayConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// TestServeRetryExhaustion: with no retry budget and no listener, the worker
// fails immediately with the dial error; with a budget, the wrapped error
// names the attempt count.
func TestServeRetryExhaustion(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens here anymore

	_, err = remote.WorkWith(context.Background(), "tcp", addr, remote.WorkOptions{
		Retry: remote.RetryPolicy{Attempts: 3, Backoff: time.Millisecond, Seed: 1},
	})
	if err == nil {
		t.Fatal("worker connected to a closed listener")
	}
	if want := "after 3 attempts"; !contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestServeHeartbeats: a healthy run with heartbeats on both sides and an
// injected superstep delay long enough to guarantee beats flow while the
// kernels are (artificially) slow. Liveness traffic must not disturb the
// partition bytes.
func TestServeHeartbeats(t *testing.T) {
	g := gen.Grid2D(40, 40)
	cfg := core.NewConfig(core.Fast, 6)
	cfg.Seed = 4242
	cfg.PEs = 3
	cfg.Coarsen = core.CoarsenDistributed
	want := inProcess(t, g, cfg)

	// One worker's second inbox read stalls 200ms: the coordinator's result
	// readers block meanwhile, so worker heartbeats demonstrably refresh the
	// deadline (and get counted).
	sched := schedule(t, "pe0:read:2:delay:200ms;pe1:read:2:delay:200ms;pe2:read:2:delay:200ms")
	counters := &remote.Counters{}
	so := remote.ServeOptions{
		WorkerTimeout: 10 * time.Second,
		Heartbeat:     20 * time.Millisecond,
		Counters:      counters,
	}
	hb := remote.WorkOptions{Heartbeat: 10 * time.Millisecond}
	wos := []remote.WorkOptions{{Heartbeat: hb.Heartbeat, Faults: sched}, hb, hb}

	res, serr, outs := runServeFaulty(t, g, cfg, so, wos)
	if serr != nil {
		t.Fatalf("Serve: %v", serr)
	}
	if res.Cut != want.Cut || !reflect.DeepEqual(res.Blocks, want.Blocks) {
		t.Fatalf("heartbeats changed the partition: cut %d vs %d", res.Cut, want.Cut)
	}
	s := counters.Snapshot()
	if s.HeartbeatsSent < 1 {
		t.Errorf("HeartbeatsSent = %d, want >= 1", s.HeartbeatsSent)
	}
	if s.HeartbeatsRecv < 1 {
		t.Errorf("HeartbeatsRecv = %d, want >= 1", s.HeartbeatsRecv)
	}
	if s.WorkerFailures != 0 {
		t.Errorf("WorkerFailures = %d in a healthy (if slow) run", s.WorkerFailures)
	}
	for i, o := range outs {
		if o.err != nil {
			t.Errorf("worker %d: %v", i, o.err)
		}
	}
}

// TestWorkerDerivedHeartbeat: a worker given no explicit heartbeat interval
// derives one (a quarter of the announced worker timeout) from the
// assignment, so `kappa serve -worker-timeout` alone keeps slow-but-healthy
// workers from being falsely declared dead. A fake coordinator announces a
// 200ms timeout and waits for the beats that only the derivation can send.
func TestWorkerDerivedHeartbeat(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	beats := make(chan int, 1)
	go func() {
		ctrl, err := ln.Accept()
		if err != nil {
			beats <- -1
			return
		}
		defer ctrl.Close()
		br := bufio.NewReaderSize(ctrl, 1<<16)
		if _, err := dist.ReadHello(br); err != nil {
			beats <- -1
			return
		}
		a := wire.Assign{Version: wire.Version, PE: 0, PEs: 1, TimeoutMillis: 200}
		if err := wire.WriteFrame(ctrl, wire.KindAssign, wire.AppendAssign(wire.NewFrame(16), a)); err != nil {
			beats <- -1
			return
		}
		// The worker dials one transport connection next; accept and hold it.
		tr, err := ln.Accept()
		if err != nil {
			beats <- -1
			return
		}
		defer tr.Close()
		// Count two heartbeats (due at 50ms and 100ms), then end the session.
		ctrl.SetReadDeadline(time.Now().Add(10 * time.Second))
		n := 0
		for n < 2 {
			kind, _, err := wire.ReadFrame(br)
			if err != nil {
				beats <- n
				return
			}
			if kind == wire.KindHeartbeat {
				n++
			}
		}
		wire.WriteFrame(ctrl, wire.KindDone, nil)
		beats <- n
	}()

	if _, err := remote.WorkWith(ctx, "tcp", ln.Addr().String(), remote.WorkOptions{}); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if n := <-beats; n < 2 {
		t.Fatalf("coordinator saw %d heartbeats, want >= 2 derived from the announced timeout", n)
	}
}

// TestServeOptionsAnnounced: the assignment frame carries the coordinator's
// timing contract to the worker.
func TestServeOptionsAnnounced(t *testing.T) {
	a := wire.Assign{Version: wire.Version, PE: 0, PEs: 2, HeartbeatMillis: 20, TimeoutMillis: 1000}
	dec, err := wire.DecodeAssign(wire.AppendAssign(nil, a))
	if err != nil {
		t.Fatal(err)
	}
	if dec.HeartbeatMillis != 20 || dec.TimeoutMillis != 1000 {
		t.Fatalf("timing fields did not round-trip: %+v", dec)
	}
}
