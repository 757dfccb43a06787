// Package dist distributes graph nodes over processing elements (PEs), the
// prepartitioning layer of §3.3 of the paper ("Engineering a Scalable High
// Quality Graph Partitioner", Holtgrewe, Sanders, Schulz, IPDPS 2010).
//
// Before the parallel coarsening phase can match in parallel, every node must
// live on some PE; the quality of that assignment decides how much of the
// matching work is PE-local (cheap) versus in the cross-PE gap graph
// (expensive). The package implements the paper's two assignments:
//
//   - StrategyRanges — contiguous node-weight-balanced index ranges, the
//     fallback of §3.3 when no geometry is available. Zero-cost, balance is
//     exact, but edge locality is whatever the input numbering happens to
//     provide.
//   - StrategyRCB — recursive coordinate bisection over node coordinates, the
//     paper's choice for geometric instances (rgg, Delaunay, street
//     networks): recursively split the longest axis at the weighted median.
//     Handles non-power-of-two PE counts by splitting PE groups
//     proportionally.
//
// StrategyAuto is the paper's rule between the two: RCB when the graph
// carries coordinates, ranges otherwise (Strategy.Resolve).
//
// Assign runs the selected Strategy; EdgeLocality and Imbalance make the
// strategies comparable; ExtractAll materializes each PE's local subgraph
// plus its ghost (halo) layer with local↔global ID maps; and Exchanger is
// the channel-backed bulk-synchronous message layer (one mailbox per PE)
// over which the PEs trade ghost-node state during distributed coarsening —
// together the building blocks of the PE-local contraction phase in
// internal/matching and internal/coarsen.
package dist

import (
	"fmt"
	"strings"

	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/par"
)

// Strategy names a node-to-PE distribution strategy.
type Strategy int

const (
	// StrategyAuto picks RCB when the graph carries coordinates and
	// weighted index ranges otherwise — the paper's §3.3 behavior.
	StrategyAuto Strategy = iota
	// StrategyRanges assigns contiguous, node-weight-balanced index ranges.
	StrategyRanges
	// StrategyRCB is recursive coordinate bisection (requires coordinates;
	// falls back to ranges without them).
	StrategyRCB
)

// String returns the flag-level name of the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyRanges:
		return "ranges"
	case StrategyRCB:
		return "rcb"
	default:
		return fmt.Sprintf("dist.Strategy(%d)", int(s))
	}
}

// ParseStrategy parses a flag-level strategy name, case-insensitively.
func ParseStrategy(name string) (Strategy, error) {
	switch strings.ToLower(name) {
	case "auto", "":
		return StrategyAuto, nil
	case "ranges", "index":
		return StrategyRanges, nil
	case "rcb":
		return StrategyRCB, nil
	default:
		return StrategyAuto, fmt.Errorf("dist: unknown strategy %q (want auto|ranges|rcb)", name)
	}
}

// Resolve is the strategy Assign runs for s on a graph with (coords) or
// without coordinates: StrategyRCB when there are coordinates and s is auto
// or rcb, StrategyRanges otherwise. Strategies that resolve alike assign
// every graph of that kind alike.
func (s Strategy) Resolve(coords bool) Strategy {
	if coords && (s == StrategyAuto || s == StrategyRCB) {
		return StrategyRCB
	}
	return StrategyRanges
}

// Assign distributes the nodes of g over pes PEs with the given strategy and
// returns the PE of every node. RCB falls back to weighted index ranges when
// g has no coordinates, so Assign never fails. Node weights
// are respected by every strategy.
func Assign(g *graph.Graph, s Strategy, pes int) []int32 {
	return AssignScratch(nil, g, s, pes, nil)
}

// AssignScratch is Assign on a run's crew — the halves of recursive
// coordinate bisection are batches on run — drawing its temporaries, and the
// returned assignment itself, from a (nil = allocate fresh). The caller owns
// the result; hand it back with a.PutInt32 when done. Node weights are read
// from g in place.
func AssignScratch(run *par.Crew, g *graph.Graph, s Strategy, pes int, a *mem.Arena) []int32 {
	if pes <= 1 {
		return allOnPE0(a, g.NumNodes())
	}
	if s.Resolve(g.HasCoords()) == StrategyRCB {
		// All available dimensions: real 3D bisection for 3D inputs.
		return rcbScratch(run, g.Coords(), g.NodeWeights(), pes, a)
	}
	return weightedRangesInto(a.Int32(g.NumNodes()), g.NodeWeights(), pes)
}

// allOnPE0 is the assignment of n nodes to a single PE, borrowed from a.
func allOnPE0(a *mem.Arena, n int) []int32 {
	assign := a.Int32(n)
	clear(assign)
	return assign
}
