package main

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// A workload is one named set of inputs and one way of calling the
// partitioner. All five are closed loops: a caller of a partitioner waits
// for its partition before asking for the next.
type workload struct {
	name    string
	clients int // concurrent callers; never more than GOMAXPROCS
	// cycle is the size of the fixed op set. Op i runs with the seed of op
	// i mod cycle, so a run of any length partitions the same cycle inputs,
	// cut_sum (taken over the first cycle) repeats exactly, and every later
	// op must reproduce the cut of its first occurrence.
	cycle int
	// calEvery is the number of ops between two measurements of the
	// machine's speed (calib.go), a divisor of cycle. The callers are idle
	// while one is taken: with one caller that is between any two ops, with
	// two it needs them to wait for each other, which once a cycle leaves
	// the mix of concurrent jobs all but untouched.
	calEvery int
	// graph generates the workload's main input — the one the per-layer
	// probes run on — from the generator seed.
	graph func(sc scale, seed uint64) *graph.Graph
	setup func(sc scale, seed uint64, dir string) (instance, error)
}

// An instance is a workload set up and ready for timed ops.
type instance interface {
	// op runs operation i with partitioner seed seed and returns its output
	// for the oracle. tr is nil on untraced ops.
	op(ctx context.Context, i int, seed uint64, tr *opTrace) (output, error)
	// probeInput is the workload's own level-0 input — the graph and
	// configuration the per-layer probes call the layers on.
	probeInput() (*graph.Graph, core.Config)
	close() error
}

// scale sizes the generated inputs. Every measurement runs on fullScale; the
// tests run the same code on toy graphs.
type scale struct {
	mesh, rmat          int // RGG and RMAT scales of the four pipeline workloads
	svcDelaunay, svcRGG int // inline-METIS and file/store graphs of svc_mix
	svcRMAT             int // the service generates this one itself
	probeReps           int
}

var fullScale = scale{mesh: 15, rmat: 12, svcDelaunay: 13, svcRGG: 14, svcRMAT: 11, probeReps: 5}

var workloads = []workload{
	{
		name:    "mesh_coarsen",
		clients: 1, cycle: 32, calEvery: 1, graph: meshGraph, setup: setupMesh,
	},
	{
		name:    "powerlaw_refine",
		clients: 1, cycle: 32, calEvery: 1, graph: powerlawGraph, setup: setupPowerlaw,
	},
	{
		name:    "socket_dist",
		clients: 1, cycle: 32, calEvery: 1, graph: meshGraph, setup: setupSocket,
	},
	{
		name:    "store_serve",
		clients: 1, cycle: 32, calEvery: 1, graph: meshGraph, setup: setupStore,
	},
	{
		name:    "svc_mix",
		clients: 2, cycle: svcCycle, calEvery: svcCycle, graph: svcGraph, setup: setupSvc,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// opSeed is the partitioner seed of op i of a run with generator seed s.
// The program only ever sees generated graphs and these configurations.
func opSeed(s uint64, i, cycle int) uint64 { return 1000*s + uint64(i%cycle) }

// pipelineInstance is an in-process core.Run workload.
type pipelineInstance struct {
	g   *graph.Graph
	cfg core.Config
}

func (p *pipelineInstance) op(ctx context.Context, _ int, seed uint64, tr *opTrace) (output, error) {
	cfg := p.cfg
	cfg.Seed = seed
	var opts []core.Option
	if tr != nil {
		opts = tr.coreOptions()
	}
	res, err := core.Run(ctx, p.g, cfg, opts...)
	if err != nil {
		return output{}, err
	}
	return output{g: p.g, k: cfg.K, eps: cfg.Eps, cut: res.Cut, blocks: res.Blocks}, nil
}

func (p *pipelineInstance) probeInput() (*graph.Graph, core.Config) { return p.g, p.cfg }
func (p *pipelineInstance) close() error                            { return nil }

func meshGraph(sc scale, seed uint64) *graph.Graph     { return gen.RGG(sc.mesh, seed) }
func powerlawGraph(sc scale, seed uint64) *graph.Graph { return gen.RMAT(sc.rmat, 10, seed) }
func svcGraph(sc scale, seed uint64) *graph.Graph      { return gen.RGG(sc.svcRGG, seed) }

func setupMesh(sc scale, seed uint64, _ string) (instance, error) {
	return &pipelineInstance{g: meshGraph(sc, seed), cfg: core.NewConfig(core.Fast, 16)}, nil
}

func setupPowerlaw(sc scale, seed uint64, _ string) (instance, error) {
	return &pipelineInstance{g: powerlawGraph(sc, seed), cfg: core.NewConfig(core.Fast, 16)}, nil
}
