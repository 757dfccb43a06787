// Package rating implements the edge rating functions of §3.1 of the paper.
//
// A rating function tells the matching algorithm how valuable an edge is for
// contraction. The paper's key observation is that the plain edge weight —
// used by most previous systems — is considerably worse (up to 8.8% on
// average) than ratings that also discourage heavy end nodes, because
// contracting light nodes keeps node weights uniform across the hierarchy.
package rating

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/par"
)

// Func identifies one of the paper's edge rating functions.
type Func int

const (
	// Weight rates an edge by ω(e), the classic heavy-edge rating.
	Weight Func = iota
	// Expansion rates ω(e) / (c(u)+c(v)).
	Expansion
	// ExpansionStar rates ω(e) / (c(u)·c(v)).
	ExpansionStar
	// ExpansionStar2 rates ω(e)² / (c(u)·c(v)); the paper's default.
	ExpansionStar2
	// InnerOuter rates ω(e) / (Out(v)+Out(u)−2ω(e)).
	InnerOuter
)

// All lists every rating function.
var All = []Func{Weight, Expansion, ExpansionStar, ExpansionStar2, InnerOuter}

// String returns the paper's name for the rating.
func (f Func) String() string {
	switch f {
	case Weight:
		return "weight"
	case Expansion:
		return "expansion"
	case ExpansionStar:
		return "expansion*"
	case ExpansionStar2:
		return "expansion*2"
	case InnerOuter:
		return "innerOuter"
	default:
		return fmt.Sprintf("rating.Func(%d)", int(f))
	}
}

// Rater evaluates a rating function against a fixed graph. InnerOuter's
// weighted degrees Out(v) are summed once, when the Rater is made.
type Rater struct {
	f    Func
	g    *graph.Graph
	wdeg []int64 // only for InnerOuter
}

// NewRater returns a Rater for f on g.
func NewRater(f Func, g *graph.Graph) *Rater { return NewRaterOn(nil, f, g) }

// NewRaterOn is NewRater whose weighted degrees, if f needs them, are summed
// over the node ranges of graph.ParallelRanges as a batch on run.
func NewRaterOn(run *par.Crew, f Func, g *graph.Graph) *Rater {
	r := &Rater{f: f, g: g}
	if f == InnerOuter {
		r.wdeg = make([]int64, g.NumNodes())
		ranges := graph.ParallelRanges(run, 2*g.NumEdges())
		run.Run(ranges, func(_, i int) {
			for v, hi := g.RangeStart(i, ranges), g.RangeStart(i+1, ranges); v < hi; v++ {
				r.wdeg[v] = g.WeightedDegree(v)
			}
		})
	}
	return r
}

// Func returns the rating function this Rater evaluates.
func (r *Rater) Func() Func { return r.f }

// Rate returns the rating of edge {u, v} with weight w. Higher is more
// attractive for contraction.
func (r *Rater) Rate(u, v int32, w int64) float64 {
	switch r.f {
	case Weight:
		return float64(w)
	case Expansion:
		return float64(w) / float64(r.g.NodeWeight(u)+r.g.NodeWeight(v))
	case ExpansionStar:
		return float64(w) / (float64(r.g.NodeWeight(u)) * float64(r.g.NodeWeight(v)))
	case ExpansionStar2:
		return float64(w) * float64(w) / (float64(r.g.NodeWeight(u)) * float64(r.g.NodeWeight(v)))
	case InnerOuter:
		den := r.wdeg[u] + r.wdeg[v] - 2*w
		if den <= 0 {
			// u and v form an isolated pair; contracting it is free.
			return float64(w) * 1e18
		}
		return float64(w) / float64(den)
	default:
		//kappa:allow panicfree the rating Func enum is validated by Config.Validate
		panic("rating: unknown rating function")
	}
}
