// Package remote runs the distributed coarsening phase across OS processes —
// the paper's actual process model (one MPI rank per PE) realized over the
// dist.Transport seam with sockets and the internal/wire codecs.
//
// Roles:
//
//   - The coordinator (ServeWith, or ServeStore over a shard store) owns the
//     global graph and the pipeline: it accepts one control and one
//     transport connection per worker, assigns PEs, and replaces the
//     in-process contraction kernel with one that ships each PE its subgraph
//     shard (wire-encoded) per level, waits for the per-PE shares of the
//     fine→coarse map, and contracts its own copy of the level by them.
//     Initial partitioning and refinement run on the coordinator, exactly as
//     §4/§5 of the paper run them on one rank.
//
//   - A worker (Work) hosts one or more PEs: it receives its shards, runs
//     the exported per-PE kernels (matching.MatchSubgraph,
//     coarsen.ContractSubgraph) against a dist.SocketTransport whose hub
//     lives in the coordinator, and ships its coarse numbering back.
//
// Because the workers execute the identical kernel code the in-process
// goroutine PEs execute, a fixed seed yields byte-identical partitions to
// the Exchanger-backed run — the property TestServeMatchesInProcess and the
// cmd/kappa two-process test pin.
//
// # Fault tolerance
//
// A contraction level commits nothing until coarsen.Stitch, and its inputs
// (shards extracted from the current graph, the level-derived seed) are
// deterministic — so the recovery unit is the level: when anything fails,
// the coordinator collapses the attempt, repairs the worker set, and re-runs
// the level from scratch, producing the byte-identical partition of a
// healthy run. Failure detection is per control connection (I/O errors,
// read-deadline expiry between heartbeats); one dead worker necessarily
// collapses the whole superstep barrier, so the coordinator stops the hub,
// drains an outcome — a result, an explicit level-aborted notice, or an
// error — for every outstanding PE (keeping surviving control streams
// frame-aligned), and then rebuilds: orphaned PEs move to the live worker
// hosting the fewest (ties to the lowest id), every live worker re-dials its
// transport connections into a fresh hub (the re-dial doubling as a
// liveness probe), and the level retries. When no workers remain, the
// coordinator runs all remaining levels itself with core.DistributedLevel
// over the in-process Exchanger — the kernel of `-coarsen distributed`, hence
// the same bytes.
//
// # Folding
//
// The same branch runs the levels too small to ship: a level whose input
// holds fewer than foldHalfEdges half-edges per PE is folded onto the
// coordinator, which runs it with core.DistributedLevel instead of paying a
// job/result round trip and the hub's supersteps for it. Levels only shrink,
// so once a run folds it never ships again; level 0 of a store-served run
// always ships its stored shards.
package remote

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coarsen"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/par"
	"repro/internal/store"
	"repro/internal/wire"
)

// foldHalfEdges is the fold floor: a level whose input has fewer half-edges
// per PE (2·edges/PEs) runs on the coordinator instead of on the workers.
// BenchmarkRemoteLevel times one level both ways on two PEs (EXPERIMENTS.md,
// "Folding small levels"): shipping adds 0.8–0.9 ms a level whatever its
// size — the job/result round trip and the hub's supersteps — plus 45–60 ns
// a half-edge a PE for extraction and the codecs, so the fixed part is the
// larger one below 15–18 k half-edges a PE. The floor sits just under that,
// at 14 Ki: rgg:12 on two PEs (15.7 k) keeps shipping its level 0, and
// rgg:15 on two PEs its first three levels.
const foldHalfEdges = 14 << 10

// foldFloor is the floor in force; tests pin it (0 ships every level).
var foldFloor = foldHalfEdges

// maxLevelAttempts bounds how often one contraction level is retried before
// the coordinator gives up. Each retry follows a repair (reassignment or
// local fallback), so hitting the bound means failures keep happening on
// freshly repaired configurations.
const maxLevelAttempts = 4

// ServeOptions configures the coordinator's fault tolerance. The zero value
// is the legacy behavior: no deadlines, no heartbeats — failures are still
// detected (a dead worker's connection errors) and recovered, but a silently
// stalled worker blocks forever.
type ServeOptions struct {
	// Stats, when non-nil, receives the hub's per-worker view of frames,
	// payload bytes and routed supersteps. The counters are atomic: readable
	// while the run is in flight (obs.BindTransport) and afterwards for the
	// run report's transport section.
	Stats *dist.TransportStats
	// WorkerTimeout bounds every control-frame read (refreshed by worker
	// heartbeats), every handshake accept, and the hub's intra-superstep
	// I/O. A worker silent for longer is declared dead. It is announced to
	// workers in the assignment, where it also bounds their transport I/O.
	WorkerTimeout time.Duration
	// Heartbeat is the interval of coordinator → worker heartbeats, which
	// keep workers from timing out during long coordinator-local phases
	// (initial partitioning, refinement). Announced in the assignment;
	// workers derive their control-read deadline from it.
	Heartbeat time.Duration
	// Counters receives the fault-tolerance ledger; nil allocates a private
	// one (the run still recovers, the numbers are just not observable).
	Counters *Counters
}

// workerConn is the coordinator's control channel to one worker process.
type workerConn struct {
	id     int // worker id == its first assigned PE
	conn   net.Conn
	br     *bufio.Reader
	wmu    sync.Mutex  // serializes frame writes (jobs, heartbeats, done)
	dead   atomic.Bool // set once, never cleared
	hosted []int       // PEs this worker currently runs, sorted
}

// coordinator implements core.Coarsener by outsourcing every contraction
// level to the connected workers, supervising them, and repairing the
// worker set between attempts.
type coordinator struct {
	pes      int
	ln       net.Listener
	opts     ServeOptions
	counters *Counters

	workers        []*workerConn
	owner          []int      // pe → worker id
	transportConns []net.Conn // accepted in the handshake; closed by closeAll
	connMu         sync.Mutex // guards workers and transportConns while accepting

	hub    *dist.SocketHub
	hubErr chan error

	// localT is set once the coordinator runs the levels itself — the first
	// folded level, or no workers left: every remaining level runs over this
	// in-process Exchanger, its PEs drawing from scratch.
	localT   dist.Transport
	scratch  []*mem.Arena
	degraded bool // any failure happened; hub teardown errors are expected

	// Shard-store serving (ServeStore). When store is set and the level's
	// current graph IS the fine graph, remoteLevel splices each PE's stored
	// shard bytes into its job frame instead of extracting subgraphs from
	// the global adjacency; spliceSem (capacity 1) serializes load+send so
	// at most one shard's bytes are resident at a time.
	store     *store.Store
	fine      *graph.Graph
	spliceSem chan struct{}
}

// ServeWith runs the full pipeline for g with the contraction phase
// distributed over cfg.NumPEs() worker processes connecting to ln. It blocks
// until the workers have connected (one control plus one transport connection
// each), runs the pipeline, broadcasts the final partition to the workers,
// and returns the result. cfg.Coarsen is forced to CoarsenDistributed — that
// is the only mode with a per-PE kernel to distribute. so configures failure
// detection and the run's counters; its zero value waits forever.
//
// Cancelling ctx closes every connection and the listener, so blocked
// accepts and superstep reads abort promptly.
func ServeWith(ctx context.Context, ln net.Listener, g *graph.Graph, cfg core.Config, so ServeOptions, opts ...core.Option) (core.Result, error) {
	return newCoordinator(cfg.NumPEs(), ln, so).serve(ctx, g, cfg, opts...)
}

// newCoordinator builds a coordinator for pes workers on ln.
func newCoordinator(pes int, ln net.Listener, so ServeOptions) *coordinator {
	if so.Counters == nil {
		so.Counters = &Counters{}
	}
	return &coordinator{
		pes:      pes,
		ln:       ln,
		opts:     so,
		counters: so.Counters,
		workers:  make([]*workerConn, pes),
		owner:    make([]int, pes),
	}
}

// serve runs the coordinator's full session: handshake, pipeline, final
// broadcast. cfg.Coarsen is forced to CoarsenDistributed — the only mode
// with a per-PE kernel to distribute.
func (co *coordinator) serve(ctx context.Context, g *graph.Graph, cfg core.Config, opts ...core.Option) (core.Result, error) {
	cfg.Coarsen = core.CoarsenDistributed
	// Close every accepted connection on the way out — including transport
	// connections accepted before a handshake failure, which no hub ever
	// adopts (hub.Route closes its connections itself; double Close on a
	// net.Conn is harmless).
	defer co.closeAll()

	// Abort path: tear down everything the moment the context dies, so no
	// read below can block past cancellation.
	stop := context.AfterFunc(ctx, func() {
		co.ln.Close()
		co.closeAll()
	})
	defer stop()

	if err := co.handshake(cfg); err != nil {
		return core.Result{}, err
	}

	// Coordinator → worker heartbeats: without them a worker with a control
	// read deadline would declare the coordinator dead during long local
	// phases (initial partitioning, refinement), when no job traffic flows.
	var hbStop chan struct{}
	if co.opts.Heartbeat > 0 {
		hbStop = make(chan struct{})
		go co.heartbeat(co.opts.Heartbeat, hbStop)
	}

	res, runErr := core.Run(ctx, g, cfg, append(opts, core.WithCoarsener(co))...)
	if hbStop != nil {
		close(hbStop)
	}
	if runErr = co.hangUp(res.Blocks, runErr); runErr != nil {
		return core.Result{}, runErr
	}
	return res, nil
}

// closeAll closes every connection the coordinator accepted.
func (co *coordinator) closeAll() {
	co.connMu.Lock()
	defer co.connMu.Unlock()
	for _, w := range co.workers {
		if w != nil {
			w.conn.Close()
		}
	}
	for _, c := range co.transportConns {
		c.Close()
	}
}

// handshake collects pes control and pes transport connections, in any
// interleaving, and starts the hub. Control hellos request a PE (-1) and are
// assigned in arrival order; each worker then dials its transport connection
// with the assigned PE. With a WorkerTimeout, silence on the listener for
// longer than the timeout fails the handshake with a typed WorkerError — a
// worker that died mid-handshake never completes the set.
func (co *coordinator) handshake(cfg core.Config) error {
	pes, so := co.pes, co.opts
	hub := dist.NewSocketHub(pes)
	hub.SetStats(so.Stats)
	hub.SetIODeadline(so.WorkerTimeout)
	nextPE := 0
	haveTransport := 0
	for nextPE < pes || haveTransport < pes {
		armListener(co.ln, so.WorkerTimeout)
		conn, err := co.ln.Accept()
		if err != nil {
			return workerErr(-1, "handshake",
				fmt.Errorf("waiting for workers (%d/%d control, %d/%d transport): %w",
					nextPE, pes, haveTransport, pes, err))
		}
		armConnRead(conn, so.WorkerTimeout)
		br := bufio.NewReaderSize(conn, 1<<16)
		hello, err := dist.ReadHello(br)
		if err != nil {
			// Port probes and health checks connect and hang up without a
			// hello; drop them and keep waiting for real workers.
			conn.Close()
			continue
		}
		armConnRead(conn, 0)
		switch hello.Role {
		case dist.RoleControl:
			if nextPE >= pes {
				conn.Close()
				return fmt.Errorf("remote: more than %d workers connected", pes)
			}
			w := &workerConn{id: nextPE, conn: conn, br: br, hosted: []int{nextPE}}
			assign := wire.Assign{
				Version:         wire.Version,
				PE:              nextPE,
				PEs:             pes,
				Rating:          int(cfg.Rating),
				Matcher:         int(cfg.Matcher),
				Boundary:        cfg.GapMatching,
				HeartbeatMillis: int(so.Heartbeat / time.Millisecond),
				TimeoutMillis:   int(so.WorkerTimeout / time.Millisecond),
			}
			if err := co.writeCtrl(w, wire.KindAssign, wire.AppendAssign(wire.NewFrame(16), assign)); err != nil {
				conn.Close()
				return workerErr(nextPE, "handshake", err)
			}
			co.connMu.Lock()
			co.workers[nextPE] = w
			co.connMu.Unlock()
			co.owner[nextPE] = nextPE
			nextPE++
		case dist.RoleTransport:
			if err := hub.AddConnBuffered(hello.PE, conn, br); err != nil {
				conn.Close()
				return fmt.Errorf("remote: %w", err)
			}
			co.connMu.Lock()
			co.transportConns = append(co.transportConns, conn)
			co.connMu.Unlock()
			haveTransport++
		}
	}
	armListener(co.ln, 0)
	co.hub = hub
	co.hubErr = make(chan error, 1)
	go func() { co.hubErr <- hub.Route() }()
	return nil
}

// hangUp ends the session: it broadcasts the final partition (empty when
// runErr is set) to every worker still alive and waits for the hub to drain
// once the workers close their connections. A failing broadcast is NOT an
// error: the result is already computed and verified coordinator-side, and
// a worker that dies after its last result must not fail the run it no
// longer participates in. It returns runErr, or the hub's error when the run
// itself succeeded.
func (co *coordinator) hangUp(blocks []int32, runErr error) error {
	var done []byte
	if runErr == nil {
		done = wire.AppendPartition(wire.NewFrame(0), blocks)
	}
	for _, w := range co.workers {
		if w.dead.Load() {
			co.counters.DoneFailures.Add(1)
			continue
		}
		if err := co.writeCtrl(w, wire.KindDone, done); err != nil {
			co.counters.DoneFailures.Add(1)
		}
	}
	if co.hub != nil {
		if err := <-co.hubErr; err != nil && runErr == nil && !co.degraded {
			runErr = fmt.Errorf("remote: %w", err)
		}
	}
	return runErr
}

// heartbeat writes one heartbeat frame per interval to every live worker
// until stopped. Write failures are ignored here — detection and repair
// belong to the supervision loop, which will see the same dead connection.
func (co *coordinator) heartbeat(interval time.Duration, stop chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			for _, w := range co.workers {
				if w.dead.Load() {
					continue
				}
				if err := co.writeCtrl(w, wire.KindHeartbeat, nil); err == nil {
					co.counters.HeartbeatsSent.Add(1)
				}
			}
		}
	}
}

// writeCtrl writes one control frame (a wire.NewFrame buffer with the
// payload appended, nil for none) to w under its write lock, bounded by the
// worker timeout. The lock keeps heartbeats, job frames, and the final
// broadcast from interleaving mid-frame.
func (co *coordinator) writeCtrl(w *workerConn, kind byte, frame []byte) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	if co.opts.WorkerTimeout > 0 {
		w.conn.SetWriteDeadline(time.Now().Add(co.opts.WorkerTimeout))
	}
	return wire.WriteFrame(w.conn, kind, frame)
}

// readCtrl reads the next non-heartbeat control frame from w. Each read —
// including each skipped heartbeat — re-arms the worker's deadline, so a
// worker stays live exactly as long as SOMETHING flows within every
// WorkerTimeout window.
func (co *coordinator) readCtrl(w *workerConn) (byte, []byte, error) {
	for {
		if co.opts.WorkerTimeout > 0 {
			w.conn.SetReadDeadline(time.Now().Add(co.opts.WorkerTimeout))
		}
		kind, payload, err := wire.ReadFrame(w.br)
		if err != nil {
			return 0, nil, err
		}
		if kind == wire.KindHeartbeat {
			co.counters.HeartbeatsRecv.Add(1)
			continue
		}
		return kind, payload, nil
	}
}

// markDead declares worker w failed. Closing the connection unblocks any
// concurrent reader and makes every later write fail fast.
func (co *coordinator) markDead(w *workerConn) {
	if !w.dead.CompareAndSwap(false, true) {
		return
	}
	w.conn.Close()
	co.counters.WorkerFailures.Add(1)
}

// Coarsen implements core.Coarsener: the standard stop-rule loop around the
// supervised remote level kernel, whose own passes run on the run's crew.
func (co *coordinator) Coarsen(ctx context.Context, g *graph.Graph, cfg *core.Config, env *core.Env) (*coarsen.Hierarchy, error) {
	// The folded levels' arenas carry matching temporaries from level to
	// level; they go with the last level, before initial partitioning and
	// refinement allocate.
	defer func() { co.scratch = nil }()
	return core.CoarsenWith(ctx, g, cfg, env, core.StopRule(g.NumNodes(), cfg), func(ctx context.Context, cur *graph.Graph, cfg *core.Config, blocks []int32, level int, maxPair int64) (*graph.Graph, []int32, time.Duration, time.Duration, error) {
		return co.level(ctx, env.Crew(), cur, cfg, blocks, level, maxPair)
	})
}

// level is the supervised LevelKernel: run the level remotely, and on a
// worker failure repair the configuration and retry. A level's inputs are
// pure functions of the current graph and the seed, and nothing commits
// before Stitch, so a retried level is byte-identical to an undisturbed one.
// A level that folds, and every level once no worker is left, runs on the
// coordinator instead.
func (co *coordinator) level(ctx context.Context, run *par.Crew, cur *graph.Graph, cfg *core.Config, blocks []int32, level int, maxPair int64) (*graph.Graph, []int32, time.Duration, time.Duration, error) {
	fold := co.folds(cur)
	if fold && co.localT == nil {
		co.runLocally()
	}
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, 0, 0, err
		}
		if blocks == nil && (co.localT != nil || !co.splices(cur)) {
			// No assignment came with the level: one PE gets none, and a
			// store-served run leaves it to this kernel (storeDistributor). Only shipping level 0's
			// stored shards works without one; every other level, and the
			// degraded local path — the one place a store-served coordinator
			// computes over the full fine graph, accepted in exchange for
			// finishing the run — computes it from the strategy the shards
			// were extracted under.
			blocks = dist.AssignScratch(run, cur, cfg.Distribution, co.pes, nil)
		}
		if co.localT != nil {
			if fold {
				co.counters.FoldedLevels.Add(1)
			}
			cg, f2c, mt, ct := core.DistributedLevel(run, cur, cfg, blocks, co.localT, level, maxPair, co.scratch)
			return cg, f2c, mt, ct, nil
		}
		cg, f2c, mt, ct, err := co.remoteLevel(run, cur, cfg, blocks, level, maxPair)
		if err == nil {
			return cg, f2c, mt, ct, nil
		}
		co.degraded = true
		var we *WorkerError
		if !errors.As(err, &we) {
			return nil, nil, 0, 0, err // protocol bug, not a worker fault
		}
		if attempt >= maxLevelAttempts {
			return nil, nil, 0, 0, fmt.Errorf("remote: level %d failed after %d attempts (consider a longer worker timeout): %w", level, attempt, err)
		}
		co.counters.LevelRetries.Add(1)
		if rerr := co.rebuild(ctx); rerr != nil {
			return nil, nil, 0, 0, rerr
		}
	}
}

// outcome is one PE's answer to a level attempt.
type outcome struct {
	pe      int
	result  *wire.Result
	aborted bool
	err     error // connection-level failure of the owning worker
}

// remoteLevel runs one level attempt across the current worker set: extract
// every PE's shard, ship the jobs, collect an outcome per PE, stitch. The
// workers decide "empty matching" collectively over the transport (an OR
// vote), so either every result carries a contraction or none does.
//
// Failure discipline: the moment any outcome is an error or an abort, the
// attempt cannot succeed — but every outstanding PE still gets drained, so
// surviving control streams end the attempt frame-aligned and reusable.
// Stopping the hub guarantees the drain terminates: live workers blocked in
// a superstep the dead peer will never complete abort their kernels and
// answer with level-aborted frames instead of results.
func (co *coordinator) remoteLevel(run *par.Crew, cur *graph.Graph, cfg *core.Config, blocks []int32, level int, maxPair int64) (*graph.Graph, []int32, time.Duration, time.Duration, error) {
	// Shard-store fast path: at level 0 the stored shard files already hold
	// the exact bytes AppendJob would produce for this level's subgraphs
	// (Store.Write extracts under the manifest's distribution strategy), so
	// the coordinator splices file bytes behind a job header instead of
	// materializing any subgraph from the global adjacency.
	splice := co.splices(cur)
	var sgs []*dist.Subgraph
	if !splice {
		sgs = dist.ExtractAllOn(run, cur, blocks, co.pes)
	}

	live := co.liveWorkers()
	outcomes := make(chan outcome, co.pes)
	// This attempt's hub, not co.hub: a worker goroutine emits its last
	// outcome before it calls failed, so the collector can return and
	// rebuild can retire co.hub while that call is still on its way.
	hub := co.hub
	var stopOnce sync.Once
	failed := func() { stopOnce.Do(hub.Stop) }

	for _, w := range live {
		go func(w *workerConn) {
			// Ship this worker's jobs, then read one outcome per hosted PE.
			// Results and aborts arrive in kernel-completion order, each
			// frame self-identifying its PE. Every hosted PE is pending from
			// the start: a job write that fails mid-batch must still emit an
			// outcome for the PEs whose jobs were never sent, or the
			// collector's outcome count comes up short and the level hangs.
			pending := make(map[int]bool, len(w.hosted))
			for _, pe := range w.hosted {
				pending[pe] = true
			}
			for _, pe := range w.hosted {
				if splice {
					if err := co.spliceJob(w, pe, level, cfg.Seed, maxPair); err != nil {
						var we *WorkerError
						if !errors.As(err, &we) {
							// The shard file, not the worker, failed: fatal to
							// the run (a retry would re-read the same bytes),
							// and the worker stays alive.
							co.abortLevel(outcomes, pending, err)
						} else {
							co.failWorker(w, outcomes, pending, we)
						}
						failed()
						return
					}
					continue
				}
				job := wire.Job{
					Level:   level,
					Seed:    cfg.Seed + uint64(level)*101,
					MaxPair: maxPair,
					Shard:   sgs[pe],
				}
				frame, err := wire.AppendJob(wire.NewFrame(0), job)
				if err == nil {
					err = co.writeCtrl(w, wire.KindJob, frame)
				}
				if err != nil {
					co.failWorker(w, outcomes, pending, workerErr(w.id, "job", err))
					failed()
					return
				}
			}
			for len(pending) > 0 {
				kind, payload, err := co.readCtrl(w)
				if err != nil {
					co.failWorker(w, outcomes, pending, workerErr(w.id, "result", err))
					failed()
					return
				}
				switch kind {
				case wire.KindResult:
					r, err := wire.DecodeResult(payload)
					if err == nil && !pending[r.PE] {
						err = fmt.Errorf("unexpected result for PE %d", r.PE)
					}
					if err != nil {
						co.failWorker(w, outcomes, pending, workerErr(w.id, "result", err))
						failed()
						return
					}
					delete(pending, r.PE)
					outcomes <- outcome{pe: r.PE, result: &r}
				case wire.KindLevelAborted:
					la, err := wire.DecodeLevelAborted(payload)
					if err == nil && !pending[la.PE] {
						err = fmt.Errorf("unexpected abort for PE %d", la.PE)
					}
					if err != nil {
						co.failWorker(w, outcomes, pending, workerErr(w.id, "result", err))
						failed()
						return
					}
					delete(pending, la.PE)
					outcomes <- outcome{pe: la.PE, aborted: true}
					failed()
				default:
					co.failWorker(w, outcomes, pending,
						workerErr(w.id, "result", fmt.Errorf("unexpected frame kind %d", kind)))
					failed()
					return
				}
			}
		}(w)
	}

	parts := make([]*coarsen.PEContraction, co.pes)
	var matchNanos, contractNanos int64
	matched := false
	var firstErr error
	sawAbort := false
	for i := 0; i < co.pes; i++ {
		o := <-outcomes
		switch {
		case o.err != nil:
			if firstErr == nil {
				firstErr = o.err
			}
		case o.aborted:
			sawAbort = true
		default:
			r := o.result
			parts[o.pe] = r.Part
			if r.Matched > 0 {
				matched = true
			}
			if r.MatchNanos > matchNanos {
				matchNanos = r.MatchNanos
			}
			if r.ContractNanos > contractNanos {
				contractNanos = r.ContractNanos
			}
		}
	}
	if firstErr != nil {
		return nil, nil, 0, 0, firstErr
	}
	if sawAbort {
		// Aborts without a dead worker: a transport-level fault (dropped or
		// corrupted superstep frame) collapsed the barrier, but every worker
		// survived. The rebuild still replaces the hub and re-dials, so the
		// retry runs on verified-fresh connections.
		return nil, nil, 0, 0, workerErr(-1, "result", fmt.Errorf("level %d aborted by transport failure", level))
	}
	matchT := time.Duration(matchNanos)
	if !matched {
		return nil, nil, matchT, 0, nil
	}
	for pe, p := range parts {
		if p == nil {
			return nil, nil, 0, 0, fmt.Errorf("remote: PE %d matched but sent no contraction", pe)
		}
	}
	// The parts crossed a process boundary: one that does not fit the level
	// is its worker's failure — dead, the level retried on the survivors —
	// like a result that does not decode. The stitch contracts the level, so
	// it counts toward the level's contraction time, as in-process.
	ts := time.Now()
	cg, f2c, err := coarsen.StitchChecked(run, cur, parts)
	if err != nil {
		id := -1
		var pe *coarsen.PartError
		if errors.As(err, &pe) && pe.PE >= 0 {
			id = co.owner[pe.PE]
			co.markDead(co.workers[id])
		}
		return nil, nil, 0, 0, workerErr(id, "result", err)
	}
	return cg, f2c, matchT, time.Duration(contractNanos) + time.Since(ts), nil
}

// splices reports whether cur's level ships stored shard bytes: a
// store-served run at level 0, where the current graph IS the fine graph.
func (co *coordinator) splices(cur *graph.Graph) bool {
	return co.store != nil && cur == co.fine
}

// folds reports whether cur's level is too small to ship: fewer than
// foldFloor half-edges per PE, and no stored shards to splice.
func (co *coordinator) folds(cur *graph.Graph) bool {
	return !co.splices(cur) && 2*cur.NumEdges()/co.pes < foldFloor
}

// runLocally makes the coordinator run every remaining level itself: one
// in-process Exchanger metered into the run's stats, and one scratch arena
// per PE.
func (co *coordinator) runLocally() {
	co.localT = dist.Metered(dist.NewExchanger(co.pes), co.opts.Stats)
	co.scratch = make([]*mem.Arena, co.pes)
	for pe := range co.scratch {
		co.scratch[pe] = mem.NewArena()
	}
}

// spliceJob ships PE pe its level-0 job by splicing the stored shard file's
// bytes behind a freshly encoded job header — byte-identical to AppendJob on
// the extracted subgraph, with zero decoding and no global adjacency touch.
// The capacity-1 semaphore spans load and send, so the coordinator holds at
// most one shard's bytes at any moment regardless of worker count. Send
// failures come back as *WorkerError (the worker is at fault and the level
// can retry elsewhere); load failures come back plain (the store is at
// fault, retrying cannot help).
func (co *coordinator) spliceJob(w *workerConn, pe, level int, runSeed uint64, maxPair int64) error {
	co.spliceSem <- struct{}{}
	defer func() { <-co.spliceSem }()
	data, err := co.store.ShardBytes(pe)
	if err != nil {
		return fmt.Errorf("remote: loading shard %d: %w", pe, err)
	}
	frame := wire.AppendJobHeader(wire.NewFrame(len(data)+32), level, runSeed+uint64(level)*101, maxPair)
	frame = append(frame, data...)
	if err := co.writeCtrl(w, wire.KindJob, frame); err != nil {
		return workerErr(w.id, "job", err)
	}
	co.counters.ShardsStreamed.Add(1)
	return nil
}

// abortLevel emits an error outcome for every PE still pending, keeping the
// collector's outcome count exact. On its own it reports a fatal (non-worker)
// error without declaring any worker dead. PEs are emitted in ascending order
// so the first error the collector sees — the one a failed run reports — does
// not depend on map iteration order.
func (co *coordinator) abortLevel(outcomes chan<- outcome, pending map[int]bool, err error) {
	pes := make([]int, 0, len(pending))
	for pe := range pending {
		pes = append(pes, pe)
	}
	sort.Ints(pes)
	for _, pe := range pes {
		outcomes <- outcome{pe: pe, err: err}
	}
}

// failWorker declares w dead mid-attempt and emits an error outcome for
// every PE it still owed (see abortLevel).
func (co *coordinator) failWorker(w *workerConn, outcomes chan<- outcome, pending map[int]bool, err *WorkerError) {
	co.markDead(w)
	co.abortLevel(outcomes, pending, err)
}

// liveWorkers returns the workers not declared dead.
func (co *coordinator) liveWorkers() []*workerConn {
	var live []*workerConn
	for _, w := range co.workers {
		if !w.dead.Load() {
			live = append(live, w)
		}
	}
	return live
}

// rebuild repairs the worker set after a failed level attempt: orphaned PEs
// move to live workers (fewest-loaded first, ties to the lowest id), every
// live worker is told its new PE set and re-dials one transport connection
// per hosted PE into a fresh hub — the re-dial doubling as a liveness probe;
// a worker that cannot re-dial within the timeout is declared dead and the
// rebuild restarts. When no live workers remain, the coordinator sets up the
// in-process transport and finishes the remaining levels itself.
func (co *coordinator) rebuild(ctx context.Context) error {
	// The failed epoch's hub must be fully down before a new one accepts:
	// Stop is idempotent, and Route's return resolves every old connection.
	if co.hub != nil {
		co.hub.Stop()
		<-co.hubErr
		co.hub = nil
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		live := co.liveWorkers()
		if len(live) == 0 {
			co.runLocally()
			co.counters.LocalFallbacks.Add(1)
			return nil
		}
		// Deterministic reassignment of orphaned PEs.
		for pe := 0; pe < co.pes; pe++ {
			if !co.workers[co.owner[pe]].dead.Load() {
				continue
			}
			tgt := live[0]
			for _, w := range live[1:] {
				if len(w.hosted) < len(tgt.hosted) {
					tgt = w
				}
			}
			tgt.hosted = append(tgt.hosted, pe)
			sort.Ints(tgt.hosted)
			co.owner[pe] = tgt.id
			co.counters.Reassignments.Add(1)
		}
		// Announce the (possibly unchanged) PE sets: even a worker that kept
		// its PEs lost its transport connections with the old hub and must
		// re-dial them all.
		retry := false
		for _, w := range live {
			pes := make([]int32, len(w.hosted))
			for i, pe := range w.hosted {
				pes[i] = int32(pe)
			}
			if err := co.writeCtrl(w, wire.KindReassign, wire.AppendReassign(wire.NewFrame(16), pes)); err != nil {
				co.markDead(w)
				retry = true
			}
		}
		if retry {
			continue
		}
		if err := co.acceptTransports(ctx); err != nil {
			continue // acceptTransports marked the stragglers dead
		}
		return nil
	}
}

// acceptTransports builds the new epoch's hub: accept pes transport
// connections on the shared listener, bounded by the worker timeout. On
// timeout, the owners of the PEs that never arrived are declared dead and an
// error tells rebuild to start over.
func (co *coordinator) acceptTransports(ctx context.Context) error {
	hub := dist.NewSocketHub(co.pes)
	hub.SetStats(co.opts.Stats)
	hub.SetIODeadline(co.opts.WorkerTimeout)
	arrived := make([]bool, co.pes)
	for got := 0; got < co.pes; got++ {
		armListener(co.ln, co.opts.WorkerTimeout)
		conn, err := co.ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			missing := false
			for pe, ok := range arrived {
				if !ok {
					co.markDead(co.workers[co.owner[pe]])
					missing = true
				}
			}
			if !missing {
				return fmt.Errorf("remote: rebuilding transports: %w", err)
			}
			armListener(co.ln, 0)
			return fmt.Errorf("remote: transport rebuild timed out: %w", err)
		}
		armConnRead(conn, co.opts.WorkerTimeout)
		br := bufio.NewReaderSize(conn, 1<<16)
		hello, err := dist.ReadHello(br)
		if err != nil || hello.Role != dist.RoleTransport || hello.PE < 0 || hello.PE >= co.pes || arrived[hello.PE] {
			conn.Close()
			got--
			continue
		}
		armConnRead(conn, 0)
		if err := hub.AddConnBuffered(hello.PE, conn, br); err != nil {
			conn.Close()
			got--
			continue
		}
		arrived[hello.PE] = true
	}
	armListener(co.ln, 0)
	co.hub = hub
	co.hubErr = make(chan error, 1)
	go func() { co.hubErr <- hub.Route() }()
	return nil
}

// armListener sets (or clears, d == 0) the accept deadline on listeners
// that support one (TCP and unix listeners both do).
func armListener(ln net.Listener, d time.Duration) {
	type deadliner interface{ SetDeadline(time.Time) error }
	dl, ok := ln.(deadliner)
	if !ok {
		return
	}
	if d <= 0 {
		dl.SetDeadline(time.Time{})
		return
	}
	dl.SetDeadline(time.Now().Add(d))
}

// armConnRead sets (or clears, d == 0) a connection's read deadline.
func armConnRead(conn net.Conn, d time.Duration) {
	if d <= 0 {
		conn.SetReadDeadline(time.Time{})
		return
	}
	conn.SetReadDeadline(time.Now().Add(d))
}
