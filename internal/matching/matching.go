// Package matching implements the approximate maximum-weight matching
// algorithms of §3.2–3.3 of the paper: Sorted Heavy Edge Matching (SHEM, the
// Metis algorithm), the sorting-based Greedy half-approximation, the Global
// Path Algorithm (GPA), and two parallel schemes built on them. Every
// matching starts with one sequential phase on a node set (localPhase): the
// whole graph (ComputeScratch), each block of a prepartition (Parallel), or
// a PE's owned nodes (MatchSubgraph). Parallel then resolves the blocks'
// boundary by locally-heaviest matching on the gap graph, reading the shared
// global graph; MatchSubgraph runs the same idea PE-locally — each PE
// matches the internal edges of its extracted subgraph (dist.Subgraph) and
// the boundary is resolved by mutual proposals exchanged over a
// dist.Transport, the way the paper's message-passing system works. Both
// compare a boundary edge against the ratings the sequential phase carries
// out of its matcher.
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
	"slices"
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
// This is deliberately a process-global sync.Pool rather than part of the
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
	n := g.NumNodes()
	m := newEmptyIn(a, n)
	block := a.Int32(n) // every node in block 0
	clear(block)
	buf := getEdges(0)
	localPhase(g, rt, alg, r, nil, block, 0, buf, m, nil, maxPair, a)
	putEdges(buf)
	a.PutInt32(block)
	return m
}

// localPhase is the sequential phase of §3.3, the one every matching runs on
// a node set: ComputeScratch on the whole graph, Parallel on each block,
// MatchSubgraph on a PE's owned nodes. It matches into m, with alg, the
// set's internal edges: {v, u}, v < u, for v in nodes (ascending, every one
// in block p; nil = every node of g) and u in block p. The edge-based
// matchers collect them into *buf, grown to hold them — where the buffer
// comes from is the caller's choice —, in a scan over the set and each
// node's adjacency, each rated and given a random tie break from r; SHEM
// draws its scan order from r instead. rated, if non-nil, receives for every
// node of the set the rating of its match, carried out of the matcher: the
// matched edge's R, which every rating function makes rt.Rate(v, m[v], ω)
// bit for bit; 0 when unmatched. Scratch comes from a (nil = allocate).
//
//kappa:hotpath
func localPhase(g *graph.Graph, rt *rating.Rater, alg Algorithm, r *rng.RNG, nodes, block []int32, p int32, buf *[]Edge, m Matching, rated []float64, maxPair int64, a *mem.Arena) {
	count, half := g.NumNodes(), g.NumEdges()
	if nodes != nil {
		count, half = len(nodes), 0
		for _, v := range nodes {
			half += g.Degree(v)
		}
		half /= 2 // an internal edge counts twice, a cut edge once
	}
	if rated != nil {
		if nodes == nil {
			clear(rated[:count])
		}
		for _, v := range nodes {
			rated[v] = 0
		}
	}
	if alg == SHEM {
		shemInto(g, rt, r, nodes, block, p, m, rated, maxPair, a)
		return
	}
	edges := slices.Grow((*buf)[:0], half)
	for i := 0; i < count; i++ {
		v := int32(i)
		if nodes != nil {
			v = nodes[i]
		}
		adj, ws := g.Adj(v), g.AdjWeights(v)
		for j, u := range adj {
			if u > v && block[u] == p {
				//kappa:allow hotalloc appends into a buffer grown to the set's half degree sum, which bounds its internal edges
				edges = append(edges, Edge{v, u, rt.Rate(v, u, ws[j]), uint32(r.Uint64())})
			}
		}
	}
	*buf = edges
	if alg == Greedy {
		greedyEdges(g, edges, m, rated, maxPair, a)
	} else {
		gpaEdges(g, nodes, edges, m, rated, maxPair, a)
	}
}
