// Package matching implements the approximate maximum-weight matching
// algorithms of §3.2–3.3 of the paper: Sorted Heavy Edge Matching (SHEM, the
// Metis algorithm), the sorting-based Greedy half-approximation, the Global
// Path Algorithm (GPA), and two parallel schemes built on them. Parallel
// combines per-block sequential matching with locally-heaviest matching on
// the gap graph, reading the shared global graph; Distributed runs the same
// idea PE-locally — each PE matches the internal edges of its extracted
// subgraph (dist.Subgraph) and the boundary is resolved by mutual proposals
// exchanged over per-PE mailboxes (dist.Exchanger), the way the paper's
// message-passing system works.
//
// All algorithms maximize the *rating* of the matching (see internal/rating)
// rather than the raw edge weight; with the Weight rating they degenerate to
// the classical weight-based versions.
//
// Every entry point takes a *mem.Arena (nil = allocate); the matcher draws
// its candidate-edge arrays, per-block node groups and path/cycle bookkeeping
// from it instead of allocating per level. Results are byte-identical with
// and without an arena.
package matching

import (
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/rating"
	"repro/internal/rng"
)

// Matching maps every node to its partner, or -1 when unmatched. A valid
// matching is symmetric: m[v] == u implies m[u] == v.
type Matching []int32

// NewEmpty returns an all-unmatched matching over n nodes.
func NewEmpty(n int) Matching {
	return newEmptyIn(nil, n)
}

// newEmptyIn draws the matching's backing array from a (nil = allocate).
// Arena-backed matchings are returned to the arena by the caller via
// a.PutInt32([]int32(m)) once contraction has consumed them.
//
//kappa:hotpath
func newEmptyIn(a *mem.Arena, n int) Matching {
	m := Matching(a.Int32(n))
	for i := range m {
		m[i] = -1
	}
	return m
}

// Size returns the number of matched edges.
func (m Matching) Size() int {
	c := 0
	for v, u := range m {
		if u >= 0 && int32(v) < u {
			c++
		}
	}
	return c
}

// Weight returns the total edge weight ω of the matching in g.
func (m Matching) Weight(g *graph.Graph) int64 {
	var s int64
	for v, u := range m {
		if u >= 0 && int32(v) < u {
			s += g.EdgeWeightTo(int32(v), u)
		}
	}
	return s
}

// Validate checks symmetry and that every matched pair is an edge of g.
func (m Matching) Validate(g *graph.Graph) error {
	if len(m) != g.NumNodes() {
		return fmt.Errorf("matching: length %d != n %d", len(m), g.NumNodes())
	}
	for v, u := range m {
		if u < 0 {
			continue
		}
		if int(u) >= len(m) || m[u] != int32(v) {
			return fmt.Errorf("matching: asymmetric pair (%d,%d)", v, u)
		}
		if u == int32(v) {
			return fmt.Errorf("matching: node %d matched to itself", v)
		}
		if g.EdgeWeightTo(int32(v), u) == 0 {
			return fmt.Errorf("matching: pair {%d,%d} is not an edge", v, u)
		}
	}
	return nil
}

// Algorithm selects a sequential matching algorithm.
type Algorithm int

const (
	// GPA is the Global Path Algorithm, the paper's default.
	GPA Algorithm = iota
	// SHEM is Sorted Heavy Edge Matching as used in Metis.
	SHEM
	// Greedy is the sorted greedy half-approximation.
	Greedy
)

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case GPA:
		return "gpa"
	case SHEM:
		return "shem"
	case Greedy:
		return "greedy"
	default:
		return fmt.Sprintf("matching.Algorithm(%d)", int(a))
	}
}

// Edge is one undirected candidate edge: its endpoints, its precomputed
// rating and a random tie break — 24 bytes, everything the edge scans read.
type Edge struct {
	U, V int32
	R    float64
	tie  uint32
}

// edgeSlices recycles the candidate-edge arrays — the largest transient of
// every matching level (one Edge per undirected edge of the level's graph).
//
// These are deliberately a process-global sync.Pool rather than part of the
// per-run mem.Arena: the Arena's typed free lists cannot hold matching's
// Edge type without an import cycle, and sync.Pool's GC integration means
// the finest level's edge array is reclaimed under memory pressure instead
// of pinned for an arena's lifetime. The trade-off is that this one
// transient is pooled across runs even without WithArena.
var edgeSlices = sync.Pool{New: func() any { return new([]Edge) }}

// getEdges borrows an empty edge slice with capacity for at least capHint
// entries.
func getEdges(capHint int) *[]Edge {
	p := edgeSlices.Get().(*[]Edge)
	if cap(*p) < capHint {
		*p = make([]Edge, 0, capHint)
	}
	*p = (*p)[:0]
	return p
}

// putEdges returns a slice obtained from getEdges.
func putEdges(p *[]Edge) { edgeSlices.Put(p) }

// allEdgesInto appends each undirected edge of g once (U < V) with ratings
// and random tie breaks from r, into buf (which it returns re-sliced).
//
//kappa:hotpath
func allEdgesInto(g *graph.Graph, rt *rating.Rater, r *rng.RNG, buf []Edge) []Edge {
	edges := buf[:0]
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		adj := g.Adj(v)
		ws := g.AdjWeights(v)
		for i, u := range adj {
			if u > v {
				//kappa:allow hotalloc appends into a buffer getEdges pre-capped to the edge count
				edges = append(edges, Edge{v, u, rt.Rate(v, u, ws[i]), uint32(r.Uint64())})
			}
		}
	}
	return edges
}

// ComputeScratch runs the selected sequential algorithm on the whole graph.
// maxPair is the maximum combined node weight per matched pair (0 =
// unbounded): partitioners cap cluster weights during coarsening — Metis'
// maxvwgt — so that no coarse node grows beyond what the balance constraint
// of the final partition can accommodate; without the cap, tie-heavy ratings
// such as the plain edge weight let single clusters snowball. Every temporary
// — including the returned matching itself — is drawn from a (nil = allocate
// fresh). The caller owns the result; hand it back with
// a.PutInt32([]int32(m)) when done.
func ComputeScratch(g *graph.Graph, rt *rating.Rater, alg Algorithm, r *rng.RNG, maxPair int64, a *mem.Arena) Matching {
	switch alg {
	case SHEM:
		m := newEmptyIn(a, g.NumNodes())
		shemInto(g, rt, r, nil, nil, 0, m, maxPair, a)
		return m
	case Greedy:
		m := newEmptyIn(a, g.NumNodes())
		buf := getEdges(g.NumEdges())
		*buf = allEdgesInto(g, rt, r, *buf)
		greedyEdges(g, *buf, m, maxPair, a)
		putEdges(buf)
		return m
	case GPA:
		m := newEmptyIn(a, g.NumNodes())
		buf := getEdges(g.NumEdges())
		*buf = allEdgesInto(g, rt, r, *buf)
		gpaEdges(g, nil, *buf, m, nil, maxPair, a)
		putEdges(buf)
		return m
	default:
		//kappa:allow panicfree the Algorithm enum is validated by Config.Validate
		panic("matching: unknown algorithm")
	}
}
