// Package core implements KaPPa, the paper's parallel multilevel graph
// partitioner: geometric (or index-based) prepartitioning, parallel
// coarsening with gap-graph matching (§3.3), initial partitioning with
// seeded repeats (§4), and parallel pairwise refinement scheduled by an edge
// coloring of the quotient graph (§5).
//
// The contraction phase runs in one of two modes (Config.Coarsen): shared —
// matching reads the global graph — or distributed, where every PE matches
// and contracts its own extracted subgraph and exchanges ghost-node state
// over per-PE mailboxes, the configuration that generalizes to graphs too
// large for one address space. Both modes are deterministic for a fixed
// seed.
package core

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/initpart"
	"repro/internal/matching"
	"repro/internal/rating"
	"repro/internal/refine"
)

// CoarsenMode selects how the contraction phase executes.
type CoarsenMode int

const (
	// CoarsenShared matches and contracts on the shared global graph; the
	// PEs are goroutines over one address space (the historical behavior).
	CoarsenShared CoarsenMode = iota
	// CoarsenDistributed runs the contraction phase the way the paper's
	// distributed system does (§3): each PE matches its own extracted
	// subgraph and numbers its coarse nodes, exchanging ghost-node state over
	// per-PE mailboxes; the resulting fine→coarse map contracts the level
	// into the next-level global graph. Identical machinery downstream.
	CoarsenDistributed
)

// String returns the flag-level name of the mode.
func (m CoarsenMode) String() string {
	switch m {
	case CoarsenShared:
		return "shared"
	case CoarsenDistributed:
		return "distributed"
	default:
		return fmt.Sprintf("core.CoarsenMode(%d)", int(m))
	}
}

// ParseCoarsenMode parses a flag-level coarsening mode, case-insensitively.
func ParseCoarsenMode(name string) (CoarsenMode, error) {
	switch strings.ToLower(name) {
	case "shared", "":
		return CoarsenShared, nil
	case "distributed", "dist":
		return CoarsenDistributed, nil
	default:
		return CoarsenShared, fmt.Errorf("core: unknown coarsen mode %q (want shared|distributed)", name)
	}
}

// Config carries every tuning parameter of Table 2.
type Config struct {
	K   int     // number of blocks
	Eps float64 // allowed imbalance (default 0.03)

	Rating  rating.Func        // edge rating (Table 3)
	Matcher matching.Algorithm // sequential matching algorithm (Table 3)

	// StopAlpha is the α of the contraction stop rule StopRule (Table 2:
	// n/60k²).
	StopAlpha float64

	InitEngine  initpart.Engine
	InitRepeats int

	Strategy       refine.Strategy // queue selection (Table 4)
	BandDepth      int             // BFS search depth (1 / 5 / 20)
	StopOnNoChange int             // refinement loop patience: 1 = stop on first fruitless pass, 2 = after two in a row
	MaxGlobalIter  int             // max global iterations (1 / 15)
	LocalIter      int             // local iterations per pair (1 / 3 / 5)
	Patience       float64         // FM patience α (0.01 / 0.05 / 0.20)

	GapMatching bool // gap-graph matching across PE boundaries (§3.3); off only in ablations

	// Distribution selects the node-to-PE prepartitioning strategy of §3.3
	// used during parallel coarsening. The zero value (dist.StrategyAuto)
	// is the paper's behavior: RCB when the graph carries coordinates,
	// contiguous index ranges otherwise.
	Distribution dist.Strategy

	// Coarsen selects shared-memory or PE-local (distributed) coarsening.
	// The zero value is CoarsenShared. With one PE the modes coincide.
	Coarsen CoarsenMode

	// PEs is the number of simulated processing elements used during
	// coarsening. The paper identifies PEs with blocks; 0 means K.
	PEs int

	// Workers is the size of the run's crew (package par), the caller
	// included: at most that many tasks of a split pass are in flight at
	// once. 0 means GOMAXPROCS, and a larger value counts as GOMAXPROCS; 1
	// runs every pass inline. Every pass that splits into independent tasks
	// is a batch on the crew — the node ranges of graph.ParallelRanges, the
	// per-block local matchings, RCB's halves, the per-PE extraction and the
	// contraction's spans, the refinement pairs of a colour class and the
	// rows of the quotient graph — except the distributed level's superstep
	// kernels (one goroutine per PE, which meet at barriers) and the
	// initial-partitioning attempts (one goroutine each). Every parallel pass
	// does for each node or pair exactly what the serial one does, so
	// partitions are byte-identical for every Workers value, processor count
	// and interleaving (TestRunWorkersByteIdentical,
	// TestRunAboveParallelFloorsByteIdentical) — the knob trades cores for
	// wall-clock only.
	Workers int

	Seed uint64
}

// Variant names one of the paper's three preset configurations.
type Variant int

const (
	// Minimal chooses the smallest possible value for every parameter.
	Minimal Variant = iota
	// Fast aims at low execution time with good quality.
	Fast
	// Strong targets quality without an outrageous amount of time.
	Strong
)

// String returns the paper's name for the variant.
func (v Variant) String() string {
	switch v {
	case Minimal:
		return "KaPPa-Minimal"
	case Fast:
		return "KaPPa-Fast"
	case Strong:
		return "KaPPa-Strong"
	default:
		return fmt.Sprintf("core.Variant(%d)", int(v))
	}
}

// ParseVariant parses a flag-level preset name (minimal | fast | strong),
// case-insensitively; the empty string means Fast, the everyday default.
// Unknown names come back wrapped in ErrInvalidConfig, so CLI and service
// admission paths can classify them as usage errors.
func ParseVariant(name string) (Variant, error) {
	switch strings.ToLower(name) {
	case "minimal":
		return Minimal, nil
	case "fast", "":
		return Fast, nil
	case "strong":
		return Strong, nil
	default:
		return Fast, fmt.Errorf("%w: unknown preset %q (want minimal|fast|strong)", ErrInvalidConfig, name)
	}
}

// NewConfig returns the preset of Table 2 for the given variant.
func NewConfig(v Variant, k int) Config {
	c := Config{
		K:            k,
		Eps:          0.03,
		Rating:       rating.ExpansionStar2,
		Matcher:      matching.GPA,
		StopAlpha:    60,
		InitEngine:   initpart.EngineScotch,
		Strategy:     refine.TopGain,
		GapMatching:  true,
		Distribution: dist.StrategyAuto,
	}
	switch v {
	case Minimal:
		c.InitRepeats = 1
		c.BandDepth = 1
		c.StopOnNoChange = 0 // no-change stopping disabled: fixed single pass
		c.MaxGlobalIter = 1
		c.LocalIter = 1
		c.Patience = 0.01
	case Fast:
		c.InitRepeats = 3
		c.BandDepth = 5
		c.StopOnNoChange = 1
		c.MaxGlobalIter = 15
		c.LocalIter = 3
		c.Patience = 0.05
	case Strong:
		c.InitRepeats = 5
		c.BandDepth = 20
		c.StopOnNoChange = 2
		c.MaxGlobalIter = 15
		c.LocalIter = 5
		c.Patience = 0.20
	}
	return c
}

// ConfigFromNames builds the validated Config a front end describes by name.
// It is the one path from flags (kappa, kappa serve) and JSON job specs
// (kappa api) to a Config, so the byte-identity between those entry points
// cannot drift. preset, distribution and coarsen are the flag-level names
// ParseVariant, dist.ParseStrategy and ParseCoarsenMode accept; the numbers
// are taken as given (pes 0 = k, workers 0 = GOMAXPROCS). Every error wraps
// ErrInvalidConfig.
func ConfigFromNames(preset string, k int, eps float64, seed uint64, pes, workers int, distribution, coarsen string) (Config, error) {
	v, err := ParseVariant(preset)
	if err != nil {
		return Config{}, err
	}
	c := NewConfig(v, k)
	c.Eps, c.Seed, c.PEs, c.Workers = eps, seed, pes, workers
	if c.Distribution, err = dist.ParseStrategy(distribution); err == nil {
		c.Coarsen, err = ParseCoarsenMode(coarsen)
	}
	if err == nil {
		err = c.Validate()
	}
	if err != nil {
		return Config{}, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	return c, nil
}

// AdoptStore makes c describe a run over a shard store holding pes shards
// extracted under the named strategy (a store.Manifest's PEs and Strategy).
// The store's shape is a fact of the input, not a knob of the request: an
// unset PEs and StrategyAuto defer to it, anything else that disagrees is
// rejected as ErrInvalidConfig.
func (c *Config) AdoptStore(pes int, strategy string) error {
	if c.PEs != 0 && c.PEs != pes {
		return fmt.Errorf("%w: %d PEs configured but the store holds %d shards", ErrInvalidConfig, c.PEs, pes)
	}
	strat, err := dist.ParseStrategy(strategy)
	if err != nil {
		return fmt.Errorf("core: store manifest: %w", err)
	}
	if c.Distribution != strat && c.Distribution != dist.StrategyAuto {
		return fmt.Errorf("%w: distribution %s requested but the shards were extracted under %s",
			ErrInvalidConfig, c.Distribution, strat)
	}
	c.PEs, c.Distribution = pes, strat
	return nil
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.K < 1 {
		return fmt.Errorf("core: K must be >= 1, got %d", c.K)
	}
	if c.Eps < 0 {
		return fmt.Errorf("core: Eps must be >= 0, got %g", c.Eps)
	}
	if c.StopAlpha <= 0 {
		return fmt.Errorf("core: StopAlpha must be > 0, got %g", c.StopAlpha)
	}
	if c.InitRepeats < 1 {
		return fmt.Errorf("core: InitRepeats must be >= 1, got %d", c.InitRepeats)
	}
	if c.MaxGlobalIter < 1 {
		return fmt.Errorf("core: MaxGlobalIter must be >= 1, got %d", c.MaxGlobalIter)
	}
	if c.LocalIter < 1 {
		return fmt.Errorf("core: LocalIter must be >= 1, got %d", c.LocalIter)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: Workers must be >= 0, got %d", c.Workers)
	}
	return nil
}

// CheckGraph reports, wrapped in ErrInvalidConfig, a graph the configuration
// cannot partition: one with fewer nodes than K blocks. Run checks it, and so
// does a front end that admits a job before running it.
func (c *Config) CheckGraph(g *graph.Graph) error {
	if c.K > g.NumNodes() {
		return fmt.Errorf("%w: K = %d blocks for a graph of %d nodes", ErrInvalidConfig, c.K, g.NumNodes())
	}
	return nil
}

// NumPEs returns the effective PE count of the configuration: PEs when set,
// otherwise K (the paper identifies PEs with blocks).
func (c *Config) NumPEs() int {
	if c.PEs > 0 {
		return c.PEs
	}
	return c.K
}

// workers is the size of the run's crew: Workers, at most GOMAXPROCS.
func (c *Config) workers() int {
	if c.Workers > 0 {
		return min(c.Workers, runtime.GOMAXPROCS(0))
	}
	return runtime.GOMAXPROCS(0)
}
