package remote

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/mem"
	"repro/internal/rng"
	"repro/internal/wire"
)

// WorkResult is what a finished worker session reports: the PE this process
// was first assigned, how many contraction levels this worker ran, and the
// final partition the coordinator broadcast (nil when the run failed
// coordinator-side).
type WorkResult struct {
	PE int
	// Levels counts the levels this worker ran. A level folded onto the
	// coordinator is not among them, so a run whose every level folds
	// leaves it 0.
	Levels    int
	Partition []int32
}

// WorkOptions configures a worker's fault tolerance. The zero value is the
// legacy behavior: one connection attempt, no heartbeats, no injection.
type WorkOptions struct {
	// Retry governs the initial dial + handshake (see RetryPolicy).
	Retry RetryPolicy
	// Heartbeat is the interval of worker → coordinator heartbeats; they
	// refresh the coordinator's read deadline for this worker, so a slow
	// kernel is distinguishable from a dead process. Zero defaults to a
	// quarter of the worker timeout the coordinator announces in the
	// assignment (no heartbeats when that is zero too).
	Heartbeat time.Duration
	// Faults injects scheduled connection faults: the control connection is
	// labeled "ctrl", transport connections "pe<N>". Nil injects nothing.
	Faults *dist.FaultSchedule

	// onSession, when set, is handed the session before its control loop
	// starts; white-box tests read the session's state after Work returns.
	onSession func(*workSession)
}

// Work runs one worker process: dial the coordinator at addr, receive a PE
// assignment, then serve contraction-level jobs — per level and hosted PE:
// decode the shard, run the per-PE matching kernel, vote on whether anyone
// matched, contract, ship the result — until the coordinator sends Done. The
// worker executes exactly the in-process per-PE kernels, so its results are
// byte-identical to a goroutine PE's.
//
// A worker starts with one PE and may be handed more: when a sibling worker
// dies, the coordinator reassigns the orphaned shards and this worker runs
// several PE kernels concurrently over one transport — the processes shrink,
// the PE structure (and therefore the partition bytes) does not.
//
// Cancelling ctx closes the connections, aborting blocked reads promptly.
func Work(ctx context.Context, network, addr string) (WorkResult, error) {
	return WorkWith(ctx, network, addr, WorkOptions{})
}

// WorkWith is Work with explicit fault-tolerance options.
func WorkWith(ctx context.Context, network, addr string, wo WorkOptions) (WorkResult, error) {
	// The connections come and go (handshake retries, transport re-dials
	// after a reassignment); the abort hook reads the current ones under the
	// mutex so a cancellation racing a swap cannot miss (or doubly close)
	// anything.
	var connMu sync.Mutex
	var ctrl net.Conn
	var transport *dist.SocketTransport
	setCtrl := func(c net.Conn) {
		connMu.Lock()
		ctrl = c
		connMu.Unlock()
	}
	setTransport := func(t *dist.SocketTransport) {
		connMu.Lock()
		transport = t
		connMu.Unlock()
	}
	stop := context.AfterFunc(ctx, func() {
		connMu.Lock()
		c, t := ctrl, transport
		connMu.Unlock()
		if c != nil {
			c.Close()
		}
		if t != nil {
			t.Close()
		}
	})
	defer stop()

	conn, br, assign, err := dialControl(ctx, network, addr, wo, setCtrl)
	if err != nil {
		return WorkResult{}, err
	}
	defer conn.Close()
	if assign.PE < 0 || assign.PE >= assign.PEs {
		return WorkResult{}, fmt.Errorf("remote: assigned PE %d of %d", assign.PE, assign.PEs)
	}
	w := &workSession{
		network: network,
		addr:    addr,
		// With coordinator heartbeats announced, each control read is
		// bounded by four intervals: the coordinator has to miss four beats
		// before this worker declares it dead.
		ctrl:    ctrlConn{conn: conn, br: br, timeout: 4 * time.Duration(assign.HeartbeatMillis) * time.Millisecond},
		assign:  assign,
		faults:  wo.Faults,
		hosted:  []int{assign.PE},
		scratch: make([]*mem.Arena, assign.PEs),
	}

	if err := w.dialTransport(setTransport); err != nil {
		return WorkResult{}, err
	}
	defer func() {
		connMu.Lock()
		t := transport
		connMu.Unlock()
		if t != nil {
			t.Close()
		}
	}()
	if ctx.Err() != nil { // cancelled during the handshake: the hook may have run already
		return WorkResult{}, ctx.Err()
	}

	// Worker → coordinator heartbeats: they refresh the coordinator's read
	// deadline for this worker while the kernels compute. When no explicit
	// interval is configured but the coordinator announced a worker timeout,
	// default to a quarter of it — otherwise any kernel outlasting the
	// timeout would get this worker falsely declared dead, and the Assign
	// contract says one coordinator flag configures the system consistently.
	if wo.Heartbeat <= 0 && assign.TimeoutMillis > 0 {
		wo.Heartbeat = time.Duration(assign.TimeoutMillis) * time.Millisecond / 4
	}
	if wo.Heartbeat > 0 {
		hbStop := make(chan struct{})
		defer close(hbStop)
		go func() {
			t := time.NewTicker(wo.Heartbeat)
			defer t.Stop()
			for {
				select {
				case <-hbStop:
					return
				case <-t.C:
					w.ctrl.write(wire.KindHeartbeat, nil) // failures surface in the main loop
				}
			}
		}()
	}

	if wo.onSession != nil {
		wo.onSession(w)
	}
	res := WorkResult{PE: assign.PE}
	err = w.run(setTransport, &res)
	return res, err
}

// workSession is the state of one worker process's session.
type workSession struct {
	network, addr string
	ctrl          ctrlConn
	assign        wire.Assign
	faults        *dist.FaultSchedule
	hosted        []int
	// scratch[pe] is the arena PE pe's kernel draws its matching temporaries
	// from, made by the control loop the first time the PE gets a job and
	// reused for every later level. It is indexed by PE, not by hosting slot,
	// so the kernels a worker runs side by side after a reassignment never
	// borrow from the same arena.
	scratch []*mem.Arena

	transport *dist.SocketTransport
	kernels   sync.WaitGroup
	kerrMu    sync.Mutex
	kerr      error // first fatal kernel-side failure (result write died)
}

// run is the control loop: jobs spawn kernels, reassignments re-dial the
// transport, done ends the session.
func (w *workSession) run(setTransport func(*dist.SocketTransport), res *WorkResult) error {
	for {
		kind, payload, err := w.ctrl.read()
		if err != nil {
			w.kernels.Wait()
			if kerr := w.kernelErr(); kerr != nil {
				return kerr
			}
			return fmt.Errorf("remote: waiting for job: %w", err)
		}
		switch kind {
		case wire.KindJob:
			job, err := wire.DecodeJob(payload)
			if err != nil {
				return err
			}
			if lv := job.Level + 1; lv > res.Levels {
				res.Levels = lv
			}
			pe := int(job.Shard.PE)
			if pe < 0 || pe >= len(w.scratch) {
				return fmt.Errorf("remote: job for PE %d of %d", pe, len(w.scratch))
			}
			if w.scratch[pe] == nil {
				w.scratch[pe] = mem.NewArena()
			}
			w.kernels.Add(1)
			go func() {
				defer w.kernels.Done()
				w.runJob(job)
			}()
		case wire.KindReassign:
			pes, err := wire.DecodeReassign(payload)
			if err != nil {
				return err
			}
			// All kernels of the aborted level have answered (the
			// coordinator drains every outcome before reassigning), so the
			// wait is immediate; it guards the transport swap regardless.
			w.kernels.Wait()
			if kerr := w.kernelErr(); kerr != nil {
				return kerr
			}
			w.hosted = w.hosted[:0]
			for _, pe := range pes {
				w.hosted = append(w.hosted, int(pe))
			}
			w.transport.Close()
			if err := w.dialTransport(setTransport); err != nil {
				return err
			}
		case wire.KindDone:
			w.kernels.Wait()
			if len(payload) > 0 {
				blocks, _, err := wire.DecodePartition(payload)
				if err != nil {
					return err
				}
				res.Partition = blocks
			}
			return nil
		default:
			return fmt.Errorf("remote: unexpected frame kind %d", kind)
		}
	}
}

// dialTransport (re)connects one transport connection per hosted PE into the
// coordinator's current hub.
func (w *workSession) dialTransport(setTransport func(*dist.SocketTransport)) error {
	t := dist.NewSocketTransport(w.assign.PEs, wire.MsgCodec{})
	t.SetFaults(w.faults)
	t.SetIODeadline(time.Duration(w.assign.TimeoutMillis) * time.Millisecond)
	w.transport = t
	setTransport(t)
	for _, pe := range w.hosted {
		if err := t.Dial(w.network, w.addr, pe); err != nil {
			return fmt.Errorf("remote: dialing transport for PE %d: %w", pe, err)
		}
	}
	return nil
}

// kernelErr returns the first fatal kernel failure, if any.
func (w *workSession) kernelErr() error {
	w.kerrMu.Lock()
	defer w.kerrMu.Unlock()
	return w.kerr
}

// runJob executes one PE's level kernel and ships the outcome: a result on
// success, an explicit level-aborted frame when the transport collapsed
// underneath the kernel. The abort frame — rather than a closed connection —
// keeps the control stream frame-aligned, so the coordinator can reuse it
// for the retry.
func (w *workSession) runJob(job wire.Job) {
	result, err := runLevel(w.transport, w.assign, job, w.scratch[job.Shard.PE])
	var werr error
	if err != nil {
		la := wire.LevelAborted{PE: int(job.Shard.PE), Level: job.Level}
		werr = w.ctrl.write(wire.KindLevelAborted, wire.AppendLevelAborted(wire.NewFrame(16), la))
	} else {
		werr = w.ctrl.write(wire.KindResult, wire.AppendResult(wire.NewFrame(0), result))
	}
	if werr != nil {
		w.kerrMu.Lock()
		if w.kerr == nil {
			w.kerr = fmt.Errorf("remote: sending level %d outcome for PE %d: %w", job.Level, job.Shard.PE, werr)
		}
		w.kerrMu.Unlock()
	}
}

// dialControl establishes the control connection and handshake, retrying per
// the policy with seeded exponential backoff. Each attempt is independently
// bounded; the returned connection has no deadlines armed.
func dialControl(ctx context.Context, network, addr string, wo WorkOptions, setCtrl func(net.Conn)) (net.Conn, *bufio.Reader, wire.Assign, error) {
	attempts := wo.Retry.Attempts
	if attempts < 1 {
		attempts = 1
	}
	jitter := rng.NewStream(wo.Retry.Seed, 0)
	var lastErr error
	for a := 1; a <= attempts; a++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, wire.Assign{}, err
		}
		conn, br, assign, err := tryHandshake(network, addr, wo, setCtrl)
		if err == nil {
			return conn, br, assign, nil
		}
		lastErr = err
		if a < attempts {
			if d := wo.Retry.backoff(jitter, a); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					return nil, nil, wire.Assign{}, ctx.Err()
				}
			}
		}
	}
	if attempts > 1 {
		lastErr = fmt.Errorf("remote: handshake failed after %d attempts: %w", attempts, lastErr)
	}
	return nil, nil, wire.Assign{}, lastErr
}

// tryHandshake is one bounded dial + hello + assignment exchange.
func tryHandshake(network, addr string, wo WorkOptions, setCtrl func(net.Conn)) (net.Conn, *bufio.Reader, wire.Assign, error) {
	d := net.Dialer{Timeout: wo.Retry.Timeout}
	conn, err := d.Dial(network, addr)
	if err != nil {
		return nil, nil, wire.Assign{}, fmt.Errorf("remote: dialing coordinator: %w", err)
	}
	conn = wo.Faults.Wrap("ctrl", conn)
	setCtrl(conn)
	if wo.Retry.Timeout > 0 {
		conn.SetDeadline(time.Now().Add(wo.Retry.Timeout))
	}
	fail := func(err error) (net.Conn, *bufio.Reader, wire.Assign, error) {
		conn.Close()
		setCtrl(nil)
		return nil, nil, wire.Assign{}, err
	}
	if err := dist.WriteHello(conn, dist.Hello{Role: dist.RoleControl, PE: -1}); err != nil {
		return fail(fmt.Errorf("remote: hello: %w", err))
	}
	br := bufio.NewReaderSize(conn, 1<<16)
	kind, payload, err := wire.ReadFrame(br)
	if err != nil {
		return fail(fmt.Errorf("remote: waiting for assignment: %w", err))
	}
	if kind != wire.KindAssign {
		return fail(fmt.Errorf("remote: first frame has kind %d, want assignment", kind))
	}
	assign, err := wire.DecodeAssign(payload)
	if err != nil {
		return fail(err)
	}
	if assign.Version != wire.Version {
		return fail(fmt.Errorf("remote: coordinator speaks wire version %d, this worker %d", assign.Version, wire.Version))
	}
	conn.SetDeadline(time.Time{})
	return conn, br, assign, nil
}

// runLevel executes one contraction-level job against the transport: the
// per-PE level kernel core.PELevel. The socket transport reports I/O failure
// by panicking with *dist.SocketError (the Transport interface has no error
// returns); this is the superstep-sequence boundary where that panic converts
// back into an error.
func runLevel(t *dist.SocketTransport, assign wire.Assign, job wire.Job, a *mem.Arena) (result wire.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			var serr *dist.SocketError
			if e, ok := r.(error); ok && errors.As(e, &serr) {
				err = fmt.Errorf("remote: level %d: %w", job.Level, e)
				return
			}
			panic(r)
		}
	}()
	return core.PELevel(t, assign, job, a), nil
}
