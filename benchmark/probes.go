package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/coarsen"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/initpart"
	"repro/internal/matching"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/part"
	"repro/internal/pq"
	"repro/internal/rating"
	"repro/internal/refine"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/wire"
)

// prober holds what the probes share: the workload's level-0 input, the
// configuration its ops run with, and intermediate values one layer's probe
// produces for the next (the matching the contraction probe contracts, the
// subgraphs the codec probe encodes).
type prober struct {
	m    metricSet
	g    *graph.Graph
	cfg  core.Config
	pes  int
	reps int
	dir  string
	rc   runConfig
	ops  []opRecord // the run's judged ops, for probes that relate to them
	// notes give the base of each ratio a probe reports, for the printout.
	notes []string

	arena   *mem.Arena
	maxPair int64
	blocks  []int32 // node-to-PE assignment
	sgs     []*dist.Subgraph
	match   matching.Matching
	parts   []*coarsen.PEContraction
}

// probe measures every layer by calling its exported functions directly on
// the workload's own input, each timing the median of rc.sc.probeReps calls.
// The numbers say what a layer costs in isolation; which end-to-end metric
// each should move is written down in the README before any change is made.
func probe(m metricSet, inst instance, rc runConfig, ops []opRecord, dir string) (notes []string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	g, cfg := inst.probeInput()
	cfg.Seed = opSeed(rc.seed, 0, rc.workload.cycle)
	p := &prober{m: m, g: g, cfg: cfg, pes: cfg.NumPEs(), reps: rc.sc.probeReps, dir: dir, rc: rc, ops: ops, arena: mem.NewArena()}

	// The cluster-weight cap the pipeline's first contraction level uses.
	threshold := max(int(float64(g.NumNodes())/(cfg.StopAlpha*float64(cfg.K*cfg.K))), 20*p.pes, 2*cfg.K)
	p.maxPair = max(3*g.TotalNodeWeight()/(2*int64(threshold)), 2)

	m["gen.generate_s"] = timeCalls(p.reps, func() { rc.workload.graph(rc.sc, rc.seed) })
	p.dist()
	p.matching()
	p.coarsen()
	steps := []func() error{p.transports, p.wire, p.store, p.graphio,
		func() error { return p.finishedRun(inst) }, p.refinement, func() error { return p.distributedReference(inst) }}
	if s, ok := inst.(*svcInstance); ok {
		steps = append(steps, func() error { return p.service(s) })
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return p.notes, err
		}
	}
	return p.notes, nil
}

// allocs returns the heap allocations f makes.
func allocs(f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

func mbPerS(bytes int, seconds float64) float64 { return ratio(float64(bytes)/1e6, seconds) }

func (p *prober) dist() {
	g, m := p.g, p.m
	m["dist.assign_s"] = timeCalls(p.reps, func() { p.blocks = dist.Assign(g, p.cfg.Distribution, p.pes) })
	m["dist.extract_s"] = timeCalls(p.reps, func() { p.sgs = dist.ExtractAll(g, p.blocks, p.pes) })
	m["dist.edge_locality"] = dist.EdgeLocality(g, p.blocks)
	ghosts := 0
	for _, sg := range p.sgs {
		ghosts += sg.NumGhosts()
	}
	m["dist.ghost_ratio"] = ratio(float64(ghosts), float64(g.NumNodes()))
}

func (p *prober) matching() {
	g, cfg, m := p.g, p.cfg, p.m
	m["rating.rate_ns_per_edge"] = 1e9 * ratio(timeCalls(p.reps, func() {
		rt := rating.NewRater(cfg.Rating, g)
		sum := 0.0
		for u := int32(0); u < int32(g.NumNodes()); u++ {
			ws := g.AdjWeights(u)
			for i, v := range g.Adj(u) {
				if u < v {
					sum += rt.Rate(u, v, ws[i])
				}
			}
		}
		sink = sum
	}), float64(g.NumEdges()))

	rt := rating.NewRater(cfg.Rating, g)
	m["matching.gpa_s"] = timeCalls(p.reps, func() {
		mt := matching.ComputeScratch(g, rt, cfg.Matcher, rng.NewStream(cfg.Seed, 0), p.maxPair, p.arena)
		p.arena.PutInt32([]int32(mt))
	})
	m["matching.gpa_edges_per_s"] = ratio(float64(g.NumEdges()), m["matching.gpa_s"])

	parallel := func() {
		if p.match != nil {
			p.arena.PutInt32([]int32(p.match))
		}
		p.match = matching.ParallelScratch(g, rt, cfg.Matcher, p.blocks, p.pes, cfg.Seed, p.maxPair, p.arena)
	}
	m["matching.parallel_s"] = timeCalls(p.reps, parallel)
	m["matching.allocs_per_call"] = allocs(parallel)
	m["matching.matched_ratio"] = ratio(2*float64(p.match.Size()), float64(g.NumNodes()))
	m["matching.weight_ratio"] = ratio(float64(p.match.Weight(g)), float64(g.TotalEdgeWeight()))

	var ms []matching.Matching
	m["matching.dist_s"] = timeCalls(p.reps, func() {
		ms = matching.DistributedBounded(p.sgs, dist.NewExchanger(p.pes), cfg.Rating, cfg.Matcher, cfg.Seed, p.maxPair, cfg.GapMatching)
	})

	// The per-PE contraction kernel and the coordinator-serial stitch of
	// distributed coarsening, on that distributed matching.
	var sub, stitch []float64
	for rep := 0; rep < p.reps; rep++ {
		ex := dist.NewExchanger(p.pes)
		parts := make([]*coarsen.PEContraction, p.pes)
		var wg sync.WaitGroup
		t0 := time.Now()
		for pe := range parts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				parts[pe] = coarsen.ContractSubgraph(p.sgs[pe], ms[pe], ex, pe)
			}()
		}
		wg.Wait()
		t1 := time.Now()
		coarsen.Stitch(g, parts)
		sub = append(sub, t1.Sub(t0).Seconds())
		stitch = append(stitch, time.Since(t1).Seconds())
		p.parts = parts
	}
	m["coarsen.contract_subgraph_s"] = median(sub)
	m["coarsen.stitch_s"] = median(stitch)
}

// sink keeps results the compiler could otherwise prove unused.
var sink float64

func (p *prober) coarsen() {
	g, m := p.g, p.m
	var cg *graph.Graph
	var f2c []int32
	contract := func(workers int) func() {
		return func() { cg, f2c = coarsen.ContractWith(g, p.match, coarsen.Options{Workers: workers, Arena: p.arena}) }
	}
	m["coarsen.contract_w1_s"] = timeCalls(p.reps, contract(1))
	m["coarsen.contract_s"] = timeCalls(p.reps, contract(runtime.GOMAXPROCS(0)))
	m["coarsen.workers_speedup"] = ratio(m["coarsen.contract_w1_s"], m["coarsen.contract_s"])
	m["coarsen.allocs_per_call"] = allocs(contract(runtime.GOMAXPROCS(0)))
	m["coarsen.shrink_ratio"] = ratio(float64(cg.NumNodes()), float64(g.NumNodes()))

	h := coarsen.NewHierarchy(g)
	h.Push(cg, f2c)
	coarsePart := make([]int32, cg.NumNodes())
	for v := range coarsePart {
		coarsePart[v] = int32(v % p.cfg.K)
	}
	fine := make([]int32, g.NumNodes())
	m["coarsen.project_s"] = timeCalls(p.reps, func() { h.ProjectInto(0, coarsePart, fine) })
}

// transports times one superstep of the in-process Exchanger and of the
// socket transport through a SocketHub on a unix socket, both with socketPEs
// PEs each sending the same fixed batch to every peer.
func (p *prober) transports() error {
	const steps, batch = 200, 256
	out := make([][]dist.Msg, socketPEs)
	for q := range out {
		out[q] = make([]dist.Msg, batch)
		for i := range out[q] {
			out[q][i] = dist.Msg{Kind: dist.MsgCoarseID, A: int32(i), B: int32(i * 7)}
		}
	}
	supersteps := func(t dist.Transport) float64 {
		var wg sync.WaitGroup
		t0 := time.Now()
		for pe := 0; pe < socketPEs; pe++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for s := 0; s < steps; s++ {
					t.Exchange(pe, out)
				}
			}()
		}
		wg.Wait()
		return time.Since(t0).Seconds()
	}
	p.m["dist.exchanger_superstep_us"] = 1e6 * supersteps(dist.NewExchanger(socketPEs)) / steps

	sock := filepath.Join(p.dir, "hub.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		return err
	}
	defer ln.Close()
	hub := dist.NewSocketHub(socketPEs)
	hubDone := make(chan error, 1)
	go func() { hubDone <- hub.Serve(ln) }()
	st := dist.NewTransportStats(socketPEs)
	t := dist.NewSocketTransport(socketPEs, wire.MsgCodec{})
	t.SetStats(st)
	for pe := 0; pe < socketPEs; pe++ {
		if err := t.Dial("unix", sock, pe); err != nil {
			ln.Close() // unblocks the hub's accept
			<-hubDone
			return err
		}
	}
	secs := supersteps(t)
	if err := t.Close(); err != nil {
		return err
	}
	if err := <-hubDone; err != nil {
		return err
	}
	tot := st.Totals()
	p.m["dist.socket_superstep_us"] = 1e6 * secs / steps
	p.m["dist.socket_mb_s"] = mbPerS(int(tot.BytesSent+tot.BytesRecv), secs)
	return nil
}

func (p *prober) wire() error {
	m := p.m
	sg := p.sgs[0]
	var enc []byte
	var err error
	secs := timeCalls(p.reps, func() { enc, err = wire.AppendSubgraph(enc[:0], sg) })
	if err != nil {
		return err
	}
	m["wire.encode_subgraph_mb_s"] = mbPerS(len(enc), secs)
	m["wire.bytes_per_edge"] = ratio(float64(len(enc)), float64(sg.Local.NumEdges()))
	m["wire.decode_subgraph_mb_s"] = mbPerS(len(enc), timeCalls(p.reps, func() { _, _, err = wire.DecodeSubgraph(enc) }))
	if err != nil {
		return err
	}

	var cenc []byte
	secs = timeCalls(p.reps, func() { cenc = wire.AppendContraction(cenc[:0], p.parts[0]) })
	m["wire.encode_contraction_mb_s"] = mbPerS(len(cenc), secs)
	m["wire.decode_contraction_mb_s"] = mbPerS(len(cenc), timeCalls(p.reps, func() { _, _, err = wire.DecodeContraction(cenc) }))
	if err != nil {
		return err
	}

	// A superstep's worth of mixed messages, encoded and decoded often
	// enough for the clock to see it.
	const batch, rounds = 4096, 64
	msgs := make([]dist.Msg, batch)
	for i := range msgs {
		msgs[i] = dist.Msg{Kind: dist.MsgKind(i % 3), A: int32(i * 31), B: int32(i * 17), W: int64(i % 2), R: float64(i%5) / 4}
	}
	var codec wire.MsgCodec
	var menc []byte
	var dec []dist.Msg
	m["wire.msg_encode_ns_per_msg"] = 1e9 * timeCalls(p.reps, func() {
		for r := 0; r < rounds; r++ {
			menc = codec.AppendBatch(menc[:0], msgs)
		}
	}) / (batch * rounds)
	m["wire.msg_decode_ns_per_msg"] = 1e9 * timeCalls(p.reps, func() {
		for r := 0; r < rounds; r++ {
			dec, err = codec.DecodeBatch(menc, dec[:0])
		}
	}) / (batch * rounds)
	return err
}

func (p *prober) store() error {
	m := p.m
	var man *store.Manifest
	var err error
	dirs := 0
	m["store.write_s"] = timeCalls(p.reps, func() {
		if err != nil {
			return
		}
		dirs++
		man, err = store.Write(filepath.Join(p.dir, fmt.Sprintf("probe-%d.kst", dirs)), p.g,
			store.WriteOptions{PEs: p.pes, Strategy: p.cfg.Distribution})
	})
	if err != nil {
		return err
	}
	shardBytes := int64(0)
	for _, sh := range man.Shards {
		shardBytes += sh.Bytes
	}
	m["store.shard_bytes"] = float64(shardBytes)
	m["store.csr_bytes"] = float64(man.CSR.Bytes)
	m["store.write_mb_s"] = mbPerS(int(shardBytes+man.CSR.Bytes), m["store.write_s"])

	dir := filepath.Join(p.dir, fmt.Sprintf("probe-%d.kst", dirs))
	var st *store.Store
	m["store.open_verify_s"] = timeCalls(p.reps, func() {
		if st, err = store.Open(dir); err == nil {
			err = st.Verify()
		}
	})
	if err != nil {
		return err
	}
	m["store.load_shards_s"] = timeCalls(p.reps, func() { _, err = st.LoadShards(0) })
	if err != nil {
		return err
	}
	m["store.load_shards_mb_s"] = mbPerS(int(shardBytes), m["store.load_shards_s"])
	mapped := false
	m["store.map_graph_s"] = timeCalls(p.reps, func() {
		var mg *store.MappedGraph
		if mg, err = st.MapGraph(); err == nil {
			mapped = mg.Mapped()
			err = mg.Close()
		}
	})
	if mapped {
		m["store.mapped"] = 1
	}
	return err
}

func (p *prober) graphio() error {
	g, m := p.g, p.m
	var text, bin bytes.Buffer
	if err := graphio.WriteMETIS(&text, g); err != nil {
		return err
	}
	var err error
	readMETIS := func() { _, err = graphio.ReadMETIS(bytes.NewReader(text.Bytes())) }
	m["graphio.read_metis_mb_s"] = mbPerS(text.Len(), timeCalls(p.reps, readMETIS))
	m["graphio.read_metis_allocs_per_node"] = allocs(readMETIS) / float64(g.NumNodes())
	if err != nil {
		return err
	}
	secs := timeCalls(p.reps, func() {
		bin.Reset()
		err = graphio.WriteBinary(&bin, g)
	})
	if err != nil {
		return err
	}
	m["graphio.write_binary_mb_s"] = mbPerS(bin.Len(), secs)
	m["graphio.read_binary_mb_s"] = mbPerS(bin.Len(), timeCalls(p.reps, func() { _, err = graphio.ReadBinary(bytes.NewReader(bin.Bytes())) }))
	return err
}

// capture is an InitialPartitioner that keeps the coarsest graph it is
// handed — the only way to see that graph from outside the pipeline.
type capture struct{ coarsest *graph.Graph }

func (c *capture) InitialPartition(_ context.Context, g *graph.Graph, cfg *core.Config, _ *core.Env) ([]int32, int64, error) {
	c.coarsest = g
	blocks, cut := initpart.Repeat(g, cfg.K, cfg.Eps, cfg.InitEngine, cfg.InitRepeats, cfg.Seed)
	return blocks, cut, nil
}

// finishedRun probes what needs a finished pipeline run to look at: the
// observability renderers (a report and a registry to render) and initial
// partitioning (the coarsest graph, captured on the way).
func (p *prober) finishedRun(inst instance) error {
	g, cfg, m := p.g, p.cfg, p.m
	capt := &capture{}
	rep := obs.NewReportObserver(g, cfg)
	reg := obs.NewRegistry()
	arena := mem.NewArena()
	res, err := core.Run(context.Background(), g, cfg, core.WithInitialPartitioner(capt), core.WithObserver(rep),
		core.WithObserver(obs.NewPipelineObserver(reg)), core.WithArena(arena))
	if err != nil {
		return err
	}
	if s, ok := inst.(*svcInstance); ok {
		reg = s.reg // the live service's registry is the one operators scrape
	}
	report := rep.Finish(res, nil, arena)
	m["obs.report_render_us"] = 1e6 * timeCalls(p.reps, func() { _, err = report.WriteTo(io.Discard) })
	if err != nil {
		return err
	}
	m["obs.metrics_scrape_us"] = 1e6 * timeCalls(p.reps, func() { err = reg.WritePrometheus(io.Discard) })
	if err != nil {
		return err
	}

	var cut int64
	m["initpart.repeat_s"] = timeCalls(p.reps, func() {
		_, cut = initpart.Repeat(capt.coarsest, cfg.K, cfg.Eps, cfg.InitEngine, cfg.InitRepeats, cfg.Seed)
	})
	m["initpart.cut"] = float64(cut)
	m["initpart.nodes"] = float64(capt.coarsest.NumNodes())
	return nil
}

// refinement probes pairwise FM and the partition bookkeeping under it, on
// what a Minimal-preset run leaves to be improved.
func (p *prober) refinement() error {
	g, cfg, m := p.g, p.cfg, p.m
	ctx := context.Background()
	minimal := core.NewConfig(core.Minimal, cfg.K)
	minimal.Seed, minimal.PEs = cfg.Seed, cfg.PEs
	base, err := core.Run(ctx, g, minimal)
	if err != nil {
		return err
	}
	var pt *part.Partition
	m["part.from_blocks_s"] = timeCalls(p.reps, func() { pt = part.FromBlocks(g, cfg.K, cfg.Eps, base.Blocks) })
	var q []part.QEdge
	m["part.quotient_s"] = timeCalls(p.reps, func() { q = pt.Quotient() })
	var colors []int
	var nc int
	m["part.coloring_s"] = timeCalls(p.reps, func() { colors, nc = part.DistributedColoring(cfg.K, q, cfg.Seed) })
	m["part.colors"] = float64(nc)
	classes := part.ColorClasses(q, colors, nc)

	// One pass of pairwise FM over every quotient edge, class by class as
	// the pipeline schedules them, but one pair at a time.
	two := refine.TwoWayConfig{Strategy: cfg.Strategy, Patience: cfg.Patience, BandDepth: cfg.BandDepth}
	ws := refine.NewWorkspace()
	view := make([]int32, g.NumNodes())
	var sweeps []float64
	var total refine.RefinePairOutcome
	for r := 0; r < p.reps; r++ {
		pt = part.FromBlocks(g, cfg.K, cfg.Eps, append([]int32(nil), base.Blocks...))
		total = refine.RefinePairOutcome{}
		t0 := time.Now()
		for ci, class := range classes {
			copy(view, pt.Block)
			for _, e := range class {
				out := refine.RefinePairViewWS(ws, pt, view, e.A, e.B, two, cfg.Seed+uint64(ci), cfg.Seed+uint64(e.A)<<8+uint64(e.B))
				total.Gain += out.Gain
				total.Moves += out.Moves
				total.BandSize += out.BandSize
			}
		}
		sweeps = append(sweeps, time.Since(t0).Seconds())
	}
	m["refine.sweep_s"] = median(sweeps)
	m["refine.band_nodes"] = float64(total.BandSize)
	m["refine.ns_per_band_node"] = 1e9 * ratio(m["refine.sweep_s"], float64(total.BandSize))
	m["refine.moves"] = float64(total.Moves)
	m["refine.gain"] = float64(total.Gain)
	m["refine.existing_s"] = timeCalls(p.reps, func() { _, _, err = core.RefineExistingCtx(ctx, g, cfg, base.Blocks) })
	if err != nil {
		return err
	}

	// The priority queue under FM: fill it, then drain it.
	const qn = 1 << 16
	gq := pq.NewGainQueue(qn)
	r := rng.New(cfg.Seed)
	gains := make([]int64, qn)
	for i := range gains {
		gains[i] = int64(r.Intn(201)) - 100
	}
	m["pq.push_pop_ns_per_op"] = 1e9 * timeCalls(p.reps, func() {
		gq.Reset(qn)
		for v, gain := range gains {
			gq.Push(int32(v), gain, uint32(v))
		}
		for !gq.Empty() {
			gq.PopMax()
		}
	}) / (2 * qn)
	return nil
}

// distributedReference runs the workload's first op once in-process with
// distributed coarsening over the metered Exchanger. Messages and barrier
// time are only countable here: in the socket modes they happen inside the
// workers, whose counters the coordinator cannot read, and by determinism
// the in-process run exchanges exactly the messages the socket run does.
// On the socket workloads the run doubles as the cross-mode reference: its
// partition must be op 0's, and its coarsening time is the base of
// remote.socket_over_inproc_ratio.
func (p *prober) distributedReference(inst instance) error {
	cfg, m := p.cfg, p.m
	cfg.Coarsen = core.CoarsenDistributed
	stats := dist.NewTransportStats(p.pes)
	rec := newRecorder()
	tr := newOpTrace(rec, 0, time.Now())
	res, err := core.Run(context.Background(), p.g, cfg, append(tr.coreOptions(), core.WithTransportStats(stats))...)
	tr.end(time.Now())
	if err != nil {
		return err
	}
	snap := stats.Snapshot()
	for _, pe := range snap {
		m["dist.msgs_per_op"] += float64(pe.MsgsSent)
		m["dist.barrier_s_per_op"] += float64(pe.BarrierNanos) / 1e9 / float64(len(snap))
	}
	if _, ok := inst.(*socketInstance); !ok {
		m["dist.supersteps_per_op"] = float64(snap[0].Supersteps)
		return nil
	}
	inproc := spanSum(rec.snapshot(), "core.coarsen")
	m["remote.socket_over_inproc_ratio"] = ratio(m["core.coarsen_s"], inproc)
	p.notes = append(p.notes, fmt.Sprintf("remote.socket_over_inproc_ratio base: in-process distributed coarsening %.4f s", inproc))
	if p.ops[0].Error == "" && p.ops[0].Hash != partitionHash(res.Blocks) {
		return errPin
	}
	return nil
}

// errPin reports that a socket run and the in-process distributed reference
// disagree: a wrong result, not a broken benchmark.
var errPin = errors.New("socket partition of op 0 differs from the in-process distributed reference")

// service relates the service's run time to a bare core.Run of the same
// jobs: per kind, the median run time the status JSON reported against the
// median of probe runs of the kind's first op with a reused arena, as a
// service slot has; then the mean over the four kinds of each.
func (p *prober) service(s *svcInstance) error {
	var inService, bare float64
	var err error
	for kind, job := range s.jobs {
		var runs []float64
		for _, r := range p.ops {
			if r.Index%svcKinds == kind && r.tr != nil && r.Error == "" {
				runs = append(runs, r.tr.svc.run)
			}
		}
		inService += median(runs)
		cfg := job.cfg
		cfg.Seed = opSeed(p.rc.seed, kind, p.rc.workload.cycle)
		bare += timeCalls(p.reps, func() { _, err = core.Run(context.Background(), job.g, cfg, core.WithArena(p.arena)) })
		if err != nil {
			return err
		}
	}
	p.m["svc.run_over_bare_ratio"] = ratio(inService, bare)
	p.notes = append(p.notes, fmt.Sprintf("svc.run_over_bare_ratio base: bare core.Run %.4f s (mean over the four job kinds)", bare/svcKinds))
	return nil
}
