package graphio

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrLimit is the sentinel wrapped by every decode-budget rejection:
// errors.Is(err, graphio.ErrLimit) distinguishes "this input declares more
// than the process is willing to decode" from malformed input.
var ErrLimit = errors.New("graphio: declared size exceeds decode budget")

// LimitError reports a declared quantity that exceeds the decode budget in
// force: a graph's nodes or edges, a store's manifest or shard bytes, a wire
// frame's payload. The binary format in particular is a chain of
// length-prefixed sections: a 20-byte file can declare 2^31 half-edges, and
// without a budget the reader would attempt the multi-gigabyte CSR
// allocation before discovering the file ends. The budget check runs on the
// declared size, before any size-proportional allocation.
type LimitError struct {
	What     string // what was declared: "nodes", "edges", "frame", ...
	Declared uint64 // the size the input announced
	Limit    uint64 // the budget in force
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("graphio: declared %s %d exceeds decode budget %d", e.What, e.Declared, e.Limit)
}

// Unwrap makes errors.Is(err, ErrLimit) hold for every LimitError.
func (e *LimitError) Unwrap() error { return ErrLimit }

// Default decode budgets: generous enough for every benchmark family in the
// paper (and an order of magnitude beyond the largest Walshaw instance),
// small enough that the worst-case decoder allocation is hundreds of
// megabytes rather than the 8 GiB the format limits would admit. Processes
// that really load bigger graphs raise the budget explicitly.
const (
	defaultMaxDecodeNodes = 1 << 27 // ~134M nodes
	defaultMaxDecodeEdges = 1 << 28 // ~268M undirected edges
)

// budgetNodes/budgetEdges hold the configurable budgets (atomic: readers run
// on request-serving goroutines; configuration is a startup-time act). Zero
// means "the default".
var (
	budgetNodes atomic.Uint64
	budgetEdges atomic.Uint64
)

// DecodeBudget returns the decode budgets in force: the maximum node and
// undirected-edge counts a reader accepts from a declared header.
func DecodeBudget() (nodes, edges uint64) {
	nodes, edges = budgetNodes.Load(), budgetEdges.Load()
	if nodes == 0 {
		nodes = defaultMaxDecodeNodes
	}
	if edges == 0 {
		edges = defaultMaxDecodeEdges
	}
	return nodes, edges
}

// SetDecodeBudget bounds the graph size every reader in this process accepts;
// 0 restores the default for that dimension. Budgets above the format limits
// (int32 node ids, 2m offsets in int32) are clamped to them. Call it at
// startup — kappa api exposes it as -max-graph-nodes/-max-graph-edges.
func SetDecodeBudget(nodes, edges uint64) {
	if nodes > maxNodes {
		nodes = maxNodes
	}
	if edges > maxEdges {
		edges = maxEdges
	}
	budgetNodes.Store(nodes)
	budgetEdges.Store(edges)
}

// checkNodeBudget rejects a declared node count exceeding the budget.
func checkNodeBudget(n uint64) error {
	if limit, _ := DecodeBudget(); n > limit {
		return &LimitError{What: "nodes", Declared: n, Limit: limit}
	}
	return nil
}

// checkEdgeBudget rejects a declared undirected-edge count exceeding the
// budget.
func checkEdgeBudget(m uint64) error {
	if _, limit := DecodeBudget(); m > limit {
		return &LimitError{What: "edges", Declared: m, Limit: limit}
	}
	return nil
}
