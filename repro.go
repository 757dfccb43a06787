// Package repro is a from-scratch Go reproduction of KaPPa, the scalable
// high-quality parallel graph partitioner of Holtgrewe, Sanders and Schulz
// ("Engineering a Scalable High Quality Graph Partitioner", IPDPS 2010).
//
// The package is a thin facade over the implementation packages under
// internal/: it re-exports the graph data structure, the benchmark-family
// graph generators, the KaPPa configuration presets (Minimal/Fast/Strong),
// the partitioning entry points, and the baseline partitioners used by the
// paper's comparison tables.
//
// Quick start:
//
//	g := repro.RGG(15, 1)                     // 2^15-node random geometric graph
//	cfg := repro.NewConfig(repro.Fast, 8)     // KaPPa-Fast, k = 8
//	cfg.Seed = 42
//	res, err := repro.Run(context.Background(), g, cfg)
//	if err != nil { ... }
//	fmt.Println(res.Cut, res.Balance)
//
// Run is the entry point: it honors context cancellation, returns errors
// instead of panicking, and accepts functional options — WithObserver for
// typed progress events, WithArena to reuse scratch memory across runs.
//
// The facade exports what the examples, the root tests and the README use;
// the socket backend, the shard store, the job service and the report and
// metrics plumbing are driven through cmd/kappa (and, inside this module,
// through their internal/ packages).
package repro

import (
	"context"
	"io"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/part"
)

// Graph is the weighted undirected graph in adjacency-array (CSR) form.
type Graph = graph.Graph

// Builder incrementally assembles a Graph.
type Builder = graph.Builder

// NewBuilder returns a builder for a graph with n nodes.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// GraphFormat names an on-disk graph encoding: METIS text (the partitioning
// community's interchange format) or the compact deterministic binary CSR
// encoding (which also carries coordinates). FormatAuto detects the format
// when reading and picks by file extension when writing files.
type GraphFormat = graphio.Format

// Graph file formats.
const (
	FormatAuto   = graphio.FormatAuto
	FormatMETIS  = graphio.FormatMETIS
	FormatBinary = graphio.FormatBinary
)

// ReadGraph parses a graph from r; FormatAuto sniffs the binary magic and
// falls back to METIS, so callers can pass any supported file unseen.
func ReadGraph(r io.Reader, f GraphFormat) (*Graph, error) { return graphio.Read(r, f) }

// WriteGraph encodes g to w in the given format (FormatAuto writes METIS).
func WriteGraph(w io.Writer, g *Graph, f GraphFormat) error { return graphio.Write(w, g, f) }

// ReadGraphFile reads a graph file, detecting the format from its content.
func ReadGraphFile(path string) (*Graph, error) { return graphio.ReadFile(path) }

// Config carries every tuning parameter of the partitioner (Table 2).
type Config = core.Config

// Variant selects one of the paper's preset configurations.
type Variant = core.Variant

// Preset variants of Table 2.
const (
	Minimal = core.Minimal
	Fast    = core.Fast
	Strong  = core.Strong
)

// NewConfig returns the preset configuration for variant v and k blocks.
func NewConfig(v Variant, k int) Config { return core.NewConfig(v, k) }

// Result reports a finished partitioning run.
type Result = core.Result

// Run executes the full KaPPa pipeline (parallel coarsening, initial
// partitioning, parallel pairwise refinement) on g — the primary entry
// point. The context is checked between phases, before every contraction
// level, and before every global refinement iteration, so cancellation
// aborts promptly with ctx.Err(); invalid configurations come back as
// ErrInvalidConfig-wrapped errors instead of panics. A fixed cfg.Seed makes
// the result byte-deterministic.
func Run(ctx context.Context, g *Graph, cfg Config, opts ...Option) (Result, error) {
	return core.Run(ctx, g, cfg, opts...)
}

// Option configures a pipeline run; see WithObserver and WithArena.
type Option = core.Option

// WithObserver attaches an Observer receiving the run's typed TraceEvents
// (levels pushed, initial cut, per-iteration refinement gains, phase
// timings) in pipeline order. Repeat the option to attach several.
func WithObserver(o Observer) Option { return core.WithObserver(o) }

// Arena is a reusable pool of the scratch buffers the multilevel kernels
// work in (matching candidate arrays, contraction member lists and scatter
// arrays, refinement bands, projection ping-pong buffers). Each Run gets a
// private arena by default; passing one with WithArena lets repeated runs —
// benchmark repetitions, a long-lived partitioning service — reuse a single
// working set instead of re-allocating it per run. Arenas are safe for
// concurrent use, including concurrent Runs sharing one arena. Results are
// byte-identical with and without arena reuse.
type Arena = mem.Arena

// NewArena returns an empty Arena; it grows to the workloads it serves.
func NewArena() *Arena { return mem.NewArena() }

// WithArena makes the run draw its scratch buffers from a instead of a
// run-private arena; see Arena.
func WithArena(a *Arena) Option { return core.WithArena(a) }

// Observer receives TraceEvents during a Run; see WithObserver.
type Observer = core.Observer

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc = core.ObserverFunc

// TraceEvent is a typed progress event; the concrete types are LevelEvent,
// InitEvent, RefineEvent and PhaseEvent.
type TraceEvent = core.TraceEvent

// Trace event types.
type (
	// LevelEvent reports one pushed contraction level.
	LevelEvent = core.LevelEvent
	// InitEvent reports the initial partition of the coarsest graph.
	InitEvent = core.InitEvent
	// RefineEvent reports one global refinement iteration on one level.
	RefineEvent = core.RefineEvent
	// PhaseEvent reports a finished phase and its duration.
	PhaseEvent = core.PhaseEvent
)

// MetricsRegistry is a dependency-free metrics registry (counters, gauges,
// fixed-bound histograms) exposed as Prometheus text and as a JSON snapshot;
// see WithMetrics.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// WithMetrics attaches an observer that feeds the run's trace events into
// r's pipeline metric catalog (kappa_runs_total, kappa_level_*,
// kappa_init_cut, kappa_refine_*, kappa_phase_seconds).
func WithMetrics(r *MetricsRegistry) Option {
	return core.WithObserver(obs.NewPipelineObserver(r))
}

// BindArenaMetrics registers pull gauges/counters over a's Stats on r.
func BindArenaMetrics(r *MetricsRegistry, a *Arena) { obs.BindArena(r, a) }

// TransportStats aggregates per-PE transport counters (messages, bytes,
// frames, supersteps, barrier time); see WithTransportStats.
type TransportStats = dist.TransportStats

// NewTransportStats returns zeroed counters for pes PEs.
func NewTransportStats(pes int) *TransportStats { return dist.NewTransportStats(pes) }

// WithTransportStats meters every superstep of distributed coarsening into
// s; scrape-safe while the run is in flight.
func WithTransportStats(s *TransportStats) Option { return core.WithTransportStats(s) }

// BindTransportMetrics registers per-PE pull counters over s on r.
func BindTransportMetrics(r *MetricsRegistry, s *TransportStats) { obs.BindTransport(r, s) }

// ErrInvalidConfig wraps every configuration error returned by Run:
// errors.Is(err, repro.ErrInvalidConfig) distinguishes usage errors from
// runtime failures.
var ErrInvalidConfig = core.ErrInvalidConfig

// Evaluate recomputes cut, balance and feasibility of a block assignment.
func Evaluate(g *Graph, k int, eps float64, blocks []int32) (cut int64, balance float64, feasible bool) {
	p := part.FromBlocks(g, k, eps, blocks)
	return p.Cut(), p.Imbalance(), p.Feasible()
}

// Distribution selects the node-to-PE prepartitioning strategy of §3.3 used
// during parallel coarsening; set it on Config.Distribution or call
// Distribute directly. The zero value is the paper's behavior: RCB with
// coordinates, ranges without.
type Distribution = dist.Strategy

// Distribution strategies.
const (
	// DistRanges assigns contiguous node-weight-balanced index ranges.
	DistRanges = dist.StrategyRanges
	// DistRCB is recursive coordinate bisection over node coordinates.
	DistRCB = dist.StrategyRCB
)

// CoarsenMode selects how the contraction phase executes; set it on
// Config.Coarsen.
type CoarsenMode = core.CoarsenMode

// Coarsening modes.
const (
	// CoarsenShared matches and contracts on the shared global graph.
	CoarsenShared = core.CoarsenShared
	// CoarsenDistributed runs PE-local matching and contraction over
	// extracted subgraphs with ghost exchange (§3 of the paper) — the
	// configuration that generalizes to graphs exceeding one address space.
	CoarsenDistributed = core.CoarsenDistributed
)

// Distribute assigns every node of g to one of pes PEs with the given
// strategy. Geometric strategies fall back to ranges when g carries no
// coordinates.
func Distribute(g *Graph, s Distribution, pes int) []int32 { return dist.Assign(g, s, pes) }

// EdgeLocality returns the fraction of edge weight internal to a node-to-PE
// assignment (1 = no cross-PE edges); the quantity a good distribution
// maximizes.
func EdgeLocality(g *Graph, assign []int32) float64 { return dist.EdgeLocality(g, assign) }

// DistImbalance returns max per-PE node weight over the average (1 = perfect
// balance).
func DistImbalance(g *Graph, assign []int32, pes int) float64 {
	return dist.Imbalance(g, assign, pes)
}

// Subgraph is one PE's local share of a distributed graph: owned nodes,
// ghost (halo) layer, and local↔global ID maps.
type Subgraph = dist.Subgraph

// ExtractSubgraphs materializes every PE's local subgraph (with ghost
// layers) for a node-to-PE assignment.
func ExtractSubgraphs(g *Graph, assign []int32, pes int) []*Subgraph {
	return dist.ExtractAll(g, assign, pes)
}

// BaselineTool selects one of the comparison partitioners of §6.2.
type BaselineTool = baseline.Tool

// Baseline partitioners.
const (
	KMetisLike   = baseline.KMetisLike
	ParMetisLike = baseline.ParMetisLike
	ScotchLike   = baseline.ScotchLike
)

// BaselineResult reports one baseline run.
type BaselineResult = baseline.Result

// RunBaseline partitions g with one of the comparison tools.
func RunBaseline(g *Graph, k int, eps float64, tool BaselineTool, seed uint64) BaselineResult {
	return baseline.Run(g, k, eps, tool, seed)
}

// Benchmark-family graph generators (Table 1).

// RGG generates a random geometric graph with 2^scale nodes (rggX).
func RGG(scale int, seed uint64) *Graph { return gen.RGG(scale, seed) }

// DelaunayX generates the Delaunay triangulation of 2^scale random points.
func DelaunayX(scale int, seed uint64) *Graph { return gen.DelaunayX(scale, seed) }

// Grid2D generates a w×h lattice with coordinates.
func Grid2D(w, h int) *Graph { return gen.Grid2D(w, h) }

// Grid3D generates an x×y×z lattice (3D FEM stand-in).
func Grid3D(x, y, z int) *Graph { return gen.Grid3D(x, y, z) }

// FEMMesh generates an unstructured 2D triangle mesh with holes.
func FEMMesh(n, holes int, seed uint64) *Graph { return gen.FEMMesh(n, holes, seed) }

// Road generates a road-network-like graph (near-planar, low degree,
// obstacle structure).
func Road(n, obstacles int, seed uint64) *Graph { return gen.Road(n, obstacles, seed) }

// PrefAttach generates a preferential-attachment social network.
func PrefAttach(n, d int, seed uint64) *Graph { return gen.PrefAttach(n, d, seed) }

// RMAT generates an RMAT power-law graph with 2^scale nodes.
func RMAT(scale, edgeFactor int, seed uint64) *Graph { return gen.RMAT(scale, edgeFactor, seed) }

// Banded generates a sparse-matrix-like banded graph.
func Banded(n, blk, band int, fill float64, seed uint64) *Graph {
	return gen.Banded(n, blk, band, fill, seed)
}
