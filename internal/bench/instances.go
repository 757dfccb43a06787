// Package bench is the experiment harness: it defines the benchmark
// instance suites mirroring Table 1 of the paper and the runners that
// regenerate every table and figure of the evaluation section (§6).
//
// The instances are synthetic stand-ins for the paper's archive graphs,
// scaled down (2^11–2^16 nodes instead of up to 2^25) so that the whole
// evaluation reruns in minutes on one machine. Absolute cut values
// therefore differ from the paper; the comparisons — which algorithm wins,
// by what factor, who violates the balance constraint, how times scale —
// are the reproduction targets.
package bench

import (
	"slices"
	"sync"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Instance is one benchmark graph with a lazy, cached generator.
type Instance struct {
	Name   string
	Family string // geometric | fem | street | matrix | social
	Make   func() *graph.Graph

	once sync.Once
	g    *graph.Graph
}

// Graph generates (once) and returns the instance.
func (in *Instance) Graph() *graph.Graph {
	in.once.Do(func() { in.g = in.Make() })
	return in.g
}

// Suites returns the calibration and the large suite as new instances: each
// generates its graph on first use and caches it for its own holder, so two
// callers of Suites share no graph — a benchmark that generates its inputs
// from them measures the same alone as after another.
func Suites() (calibration, large []*Instance) {
	calibration = []*Instance{
		{Name: "rgg13", Family: "geometric", Make: func() *graph.Graph { return gen.RGG(13, 1001) }},
		{Name: "delaunay13", Family: "geometric", Make: func() *graph.Graph { return gen.DelaunayX(13, 1002) }},
		{Name: "grid64", Family: "fem", Make: func() *graph.Graph { return gen.Grid2D(64, 64) }},
		{Name: "fem8k", Family: "fem", Make: func() *graph.Graph { return gen.FEMMesh(8192, 6, 1003) }},
		{Name: "grid3d-16", Family: "fem", Make: func() *graph.Graph { return gen.Grid3D(16, 16, 16) }},
		{Name: "band6k", Family: "matrix", Make: func() *graph.Graph { return gen.Banded(6000, 8, 24, 0.6, 1004) }},
		{Name: "road12k", Family: "street", Make: func() *graph.Graph { return gen.Road(12000, 6, 1005) }},
		{Name: "social8k", Family: "social", Make: func() *graph.Graph { return gen.PrefAttach(8192, 5, 1006) }},
	}
	large = []*Instance{
		{Name: "rgg16", Family: "geometric", Make: func() *graph.Graph { return gen.RGG(16, 2001) }},
		{Name: "delaunay16", Family: "geometric", Make: func() *graph.Graph { return gen.DelaunayX(16, 2002) }},
		{Name: "fem40k", Family: "fem", Make: func() *graph.Graph { return gen.FEMMesh(40000, 10, 2003) }},
		{Name: "grid3d-32", Family: "fem", Make: func() *graph.Graph { return gen.Grid3D(32, 32, 32) }},
		{Name: "deu-like", Family: "street", Make: func() *graph.Graph { return gen.Road(40000, 10, 2004) }},
		{Name: "eur-like", Family: "street", Make: func() *graph.Graph { return gen.Road(90000, 16, 2005) }},
		{Name: "afshell-like", Family: "matrix", Make: func() *graph.Graph { return gen.Banded(30000, 10, 30, 0.7, 2006) }},
		{Name: "coauthors-like", Family: "social", Make: func() *graph.Graph { return gen.PrefAttach(30000, 6, 2007) }},
		{Name: "citation-like", Family: "social", Make: func() *graph.Graph { return gen.RMAT(15, 12, 2008) }},
	}
	return calibration, large
}

// suites are the process's suites, which the tables share.
var suites = sync.OnceValues(Suites)

// calibration is the small/medium suite used for parameter tuning (§6.1,
// Tables 2–4 left), standing in for the left column of Table 1.
func calibration() []*Instance {
	c, _ := suites()
	return c
}

// large is the larger suite of §6.2 (Tables 4 right through 20), standing in
// for the right column of Table 1: geometric graphs, FEM graphs, street
// networks, sparse matrices, and social networks, in that order.
func large() []*Instance {
	_, l := suites()
	return l
}

// largeCoord is the subset of large with coordinates, used by Table 5 (the
// paper's rgg20, Delaunay20, deu, eur).
func largeCoord() []*Instance {
	return largeNamed("rgg16", "delaunay16", "deu-like", "eur-like")
}

// largeNamed returns the named instances of large, in suite order.
func largeNamed(names ...string) []*Instance {
	var out []*Instance
	for _, in := range large() {
		if slices.Contains(names, in.Name) {
			out = append(out, in)
		}
	}
	return out
}

// calibrationCoords is the part of calibration with coordinates, on which
// the geometric distribution strategies do not fall back to index ranges.
func calibrationCoords() []*Instance {
	var out []*Instance
	for _, in := range calibration() {
		if in.Graph().HasCoords() {
			out = append(out, in)
		}
	}
	return out
}

// scalability returns the three graphs of Figure 3 (eur, rgg and Delaunay,
// scaled).
func scalability() []*Instance {
	return largeNamed("eur-like", "rgg16", "delaunay16")
}
