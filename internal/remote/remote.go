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
//     Each level's shards follow the pipeline's node-to-PE assignment (§3.3),
//     the one an in-process run draws; a store's level 0 ships the shards
//     the store was written with instead. Initial partitioning and
//     refinement run on the coordinator, exactly as §4/§5 of the paper run
//     them on one rank. A run needs at least two PEs.
//
//   - A worker (Work) hosts one or more PEs: it receives its shards, runs
//     the per-PE level kernel core.PELevel against a dist.SocketTransport
//     whose hub lives in the coordinator, and ships its result back; the
//     coordinator contracts the level by the results with core.StitchLevel.
//
// Because the workers execute the kernel the in-process PEs of
// core.DistributedLevel execute, superstep for superstep, a fixed seed
// yields byte-identical partitions to the Exchanger-backed run — the
// property TestServeMatchesInProcess and the cmd/kappa two-process test pin.
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

// ctrlConn is one end of a coordinator↔worker control connection, the same
// on both sides. Frames are written whole under the write lock, so
// heartbeats never interleave with jobs, results or the final broadcast.
// Reads skip heartbeats. A nonzero timeout bounds every write and every read,
// re-armed by each frame read, heartbeats included: the peer stays live
// exactly as long as something flows within every window.
type ctrlConn struct {
	conn    net.Conn
	br      *bufio.Reader
	timeout time.Duration
	beats   *atomic.Int64 // counts the heartbeats read; nil counts none
	wmu     sync.Mutex
}

// write writes one control frame (a wire.NewFrame buffer with the payload
// appended, nil for none).
func (c *ctrlConn) write(kind byte, frame []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.timeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.timeout))
	}
	return wire.WriteFrame(c.conn, kind, frame)
}

// read reads the next control frame that is not a heartbeat.
func (c *ctrlConn) read() (byte, []byte, error) {
	for {
		if c.timeout > 0 {
			c.conn.SetReadDeadline(time.Now().Add(c.timeout))
		}
		kind, payload, err := wire.ReadFrame(c.br)
		if err != nil || kind != wire.KindHeartbeat {
			return kind, payload, err
		}
		if c.beats != nil {
			c.beats.Add(1)
		}
	}
}

// workerConn is the coordinator's control channel to one worker process.
type workerConn struct {
	ctrlConn
	id     int         // worker id == its first assigned PE
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
	assign   wire.Assign // the handshake's assignment; each worker's PE is filled in

	workers []*workerConn
	owner   []int      // pe → worker id
	connMu  sync.Mutex // guards workers and hub against closeAll

	// hub is the epoch's hub from the moment accept makes it: closeAll stops
	// it, which closes every transport connection added to it.
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
// Serving needs at least two PEs: with one, the in-process pipeline matches
// with the sequential shared kernel, which no worker runs, so fewer are
// rejected as core.ErrInvalidConfig before any worker is awaited.
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
// with a per-PE kernel to distribute — and fewer than two PEs are rejected.
func (co *coordinator) serve(ctx context.Context, g *graph.Graph, cfg core.Config, opts ...core.Option) (core.Result, error) {
	if cfg.NumPEs() < 2 {
		return core.Result{}, fmt.Errorf("%w: serving needs at least 2 PEs, got %d", core.ErrInvalidConfig, cfg.NumPEs())
	}
	cfg.Coarsen = core.CoarsenDistributed
	// Close every accepted connection on the way out: the workers' control
	// connections, and through the epoch's hub every transport connection.
	defer co.closeAll()

	// Abort path: tear down everything the moment the context dies, so no
	// read below can block past cancellation.
	stop := context.AfterFunc(ctx, func() {
		co.ln.Close()
		co.closeAll()
	})
	defer stop()

	if err := co.handshake(ctx, cfg); err != nil {
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
	if co.hub != nil {
		co.hub.Stop()
	}
}

// setHub makes h (nil for none) the epoch's hub.
func (co *coordinator) setHub(h *dist.SocketHub) {
	co.connMu.Lock()
	co.hub = h
	co.connMu.Unlock()
}

// handshake assigns every PE a worker, in arrival order, and starts the
// first epoch's hub.
func (co *coordinator) handshake(ctx context.Context, cfg core.Config) error {
	co.assign = wire.Assign{
		Version:         wire.Version,
		PEs:             co.pes,
		Rating:          int(cfg.Rating),
		Matcher:         int(cfg.Matcher),
		Boundary:        cfg.GapMatching,
		HeartbeatMillis: int(co.opts.Heartbeat / time.Millisecond),
		TimeoutMillis:   int(co.opts.WorkerTimeout / time.Millisecond),
	}
	return co.accept(ctx)
}

// accept opens an epoch: it waits on the listener until every PE has a
// worker and a transport connection, and then starts the epoch's hub. One
// rule decides each hello. A control hello is admitted while a PE is
// unassigned: the worker gets the lowest one. A transport hello joins the
// hub if its PE belongs to the run and has not arrived yet. Any other
// connection (a port probe, a surplus worker, a stray or repeated transport
// hello) is closed, and the wait goes on. The handshake assigns every PE; a
// rebuild finds them all assigned and only collects the re-dialed transport
// connections.
//
// With a WorkerTimeout, silence on the listener for that long fails the
// handshake with a typed WorkerError (a worker that died mid-handshake never
// completes the set); in a rebuild it marks the owners of the missing PEs
// dead, so that the rebuild starts over without them.
func (co *coordinator) accept(ctx context.Context) (err error) {
	hub := dist.NewSocketHub(co.pes)
	co.setHub(hub)
	defer armListener(co.ln, 0)
	defer func() {
		if err != nil {
			hub.Stop()
			co.setHub(nil)
		}
	}()
	assigned := 0
	for assigned < co.pes && co.workers[assigned] != nil {
		assigned++
	}
	handshake := assigned < co.pes
	arrived := make([]bool, co.pes)
	for got := 0; assigned < co.pes || got < co.pes; {
		armListener(co.ln, co.opts.WorkerTimeout)
		conn, err := co.ln.Accept()
		if err != nil {
			if handshake {
				return workerErr(-1, "handshake",
					fmt.Errorf("waiting for workers (%d/%d control, %d/%d transport): %w",
						assigned, co.pes, got, co.pes, err))
			}
			if ctx.Err() == nil {
				for pe, ok := range arrived {
					if !ok {
						co.markDead(co.workers[co.owner[pe]])
					}
				}
			}
			return fmt.Errorf("remote: rebuilding transports: %w", err)
		}
		if co.opts.WorkerTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(co.opts.WorkerTimeout))
		}
		br := bufio.NewReaderSize(conn, 1<<16)
		hello, err := dist.ReadHello(br)
		switch {
		case err != nil: // a port probe or health check: no hello
		case hello.Role == dist.RoleControl && assigned < co.pes:
			w := &workerConn{
				ctrlConn: ctrlConn{conn: conn, br: br, timeout: co.opts.WorkerTimeout, beats: &co.counters.HeartbeatsRecv},
				id:       assigned,
				hosted:   []int{assigned},
			}
			a := co.assign
			a.PE = assigned
			if w.write(wire.KindAssign, wire.AppendAssign(wire.NewFrame(16), a)) != nil {
				break
			}
			co.connMu.Lock()
			co.workers[assigned] = w
			co.connMu.Unlock()
			co.owner[assigned] = assigned
			assigned++
			continue
		case hello.Role == dist.RoleTransport && hello.PE >= 0 && hello.PE < co.pes && !arrived[hello.PE]:
			if hub.AddConnBuffered(hello.PE, conn, br) != nil {
				break
			}
			arrived[hello.PE] = true
			got++
			continue
		}
		conn.Close()
	}
	hub.SetStats(co.opts.Stats)
	hub.SetIODeadline(co.opts.WorkerTimeout)
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
		if err := w.write(wire.KindDone, done); err != nil {
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
				if err := w.write(wire.KindHeartbeat, nil); err == nil {
					co.counters.HeartbeatsSent.Add(1)
				}
			}
		}
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
// coordinator instead. Every way takes blocks, the pipeline's assignment of
// cur; only a spliced level 0 does not extract by it, its stored shards
// having been extracted by the same assignment.
func (co *coordinator) level(ctx context.Context, run *par.Crew, cur *graph.Graph, cfg *core.Config, blocks []int32, level int, maxPair int64) (*graph.Graph, []int32, time.Duration, time.Duration, error) {
	fold := co.folds(cur)
	if fold && co.localT == nil {
		co.runLocally()
	}
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, 0, 0, err
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
	var sgs []*dist.Subgraph
	if !co.splices(cur) {
		sgs = dist.ExtractAllOn(run, cur, blocks, co.pes)
	}
	seed := core.LevelSeed(cfg.Seed, level)

	outcomes := make(chan outcome, co.pes)
	// This attempt's hub, not co.hub: a worker goroutine emits its last
	// outcome before it calls failed, so the collector can return and
	// rebuild can retire co.hub while that call is still on its way.
	hub := co.hub
	var stopOnce sync.Once
	failed := func() { stopOnce.Do(hub.Stop) }

	for _, w := range co.liveWorkers() {
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
			var err error
			for _, pe := range w.hosted {
				if err = co.sendJob(w, sgs, pe, level, seed, maxPair); err != nil {
					break
				}
			}
			for err == nil && len(pending) > 0 {
				var o outcome
				if o, err = readOutcome(w, pending); err == nil {
					delete(pending, o.pe)
					outcomes <- o
					if o.aborted {
						failed()
					}
				}
			}
			if err != nil {
				// A *WorkerError is the worker's fault: it is declared dead.
				// A shard file that cannot be loaded fails the run instead
				// (a retry would read the same bytes), and the worker lives.
				var we *WorkerError
				if errors.As(err, &we) {
					co.markDead(w)
				}
				co.abortLevel(outcomes, pending, err)
				failed()
			}
		}(w)
	}

	results := make([]wire.Result, co.pes)
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
			results[o.pe] = *o.result
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
	// The parts crossed a process boundary: one that does not fit the level
	// is its worker's failure — dead, the level retried on the survivors —
	// like a result that does not decode.
	cg, f2c, mt, ct, err := core.StitchLevel(run, cur, results)
	if err != nil {
		id := -1
		var pe *coarsen.PartError
		if errors.As(err, &pe) && pe.PE >= 0 {
			id = co.owner[pe.PE]
			co.markDead(co.workers[id])
		}
		return nil, nil, 0, 0, workerErr(id, "result", err)
	}
	return cg, f2c, mt, ct, nil
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

// sendJob ships PE pe its job for the level, extracted into sgs. When sgs is
// nil the level splices: the stored shard file's bytes go behind a freshly
// encoded job header — byte-identical to AppendJob on the extracted
// subgraph, with no decoding and no touch of the global adjacency. The
// capacity-1 semaphore spans load and send, so the coordinator holds at most
// one shard's bytes at any moment whatever the worker count. A failed send
// is the worker's *WorkerError (the level can retry elsewhere); a failed load
// comes back plain (the store is at fault, and retrying cannot help).
func (co *coordinator) sendJob(w *workerConn, sgs []*dist.Subgraph, pe, level int, seed uint64, maxPair int64) error {
	var frame []byte
	if sgs == nil {
		co.spliceSem <- struct{}{}
		defer func() { <-co.spliceSem }()
		data, lerr := co.store.ShardBytes(pe)
		if lerr != nil {
			return fmt.Errorf("remote: loading shard %d: %w", pe, lerr)
		}
		frame = append(wire.AppendJobHeader(wire.NewFrame(len(data)+32), level, seed, maxPair), data...)
	} else {
		frame = wire.AppendJob(wire.NewFrame(0), wire.Job{Level: level, Seed: seed, MaxPair: maxPair, Shard: sgs[pe]})
	}
	if err := w.write(wire.KindJob, frame); err != nil {
		return workerErr(w.id, "job", err)
	}
	if sgs == nil {
		co.counters.ShardsStreamed.Add(1)
	}
	return nil
}

// readOutcome reads w's answer for one of the PEs it still owes: a result or
// a level-aborted notice. Anything else — a dead connection, a frame that
// does not decode, an answer for a PE it does not owe — is w's failure.
func readOutcome(w *workerConn, pending map[int]bool) (outcome, error) {
	kind, payload, err := w.read()
	var o outcome
	if err == nil {
		switch kind {
		case wire.KindResult:
			var r wire.Result
			r, err = wire.DecodeResult(payload)
			o = outcome{pe: r.PE, result: &r}
		case wire.KindLevelAborted:
			var la wire.LevelAborted
			la, err = wire.DecodeLevelAborted(payload)
			o = outcome{pe: la.PE, aborted: true}
		default:
			err = fmt.Errorf("unexpected frame kind %d", kind)
		}
	}
	if err == nil && !pending[o.pe] {
		err = fmt.Errorf("unexpected outcome for PE %d", o.pe)
	}
	if err != nil {
		return o, workerErr(w.id, "result", err)
	}
	return o, nil
}

// abortLevel emits an error outcome for every PE still pending, keeping the
// collector's outcome count exact. PEs are emitted in ascending order so the
// first error the collector sees — the one a failed run reports — does not
// depend on map iteration order.
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
		co.setHub(nil)
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
			if err := w.write(wire.KindReassign, wire.AppendReassign(wire.NewFrame(16), pes)); err != nil {
				co.markDead(w)
				retry = true
			}
		}
		if retry {
			continue
		}
		// A failed accept marked the stragglers dead, or ctx ended.
		if co.accept(ctx) == nil {
			return nil
		}
	}
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
