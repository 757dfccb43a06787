package main

import (
	"context"
	"errors"
	"net"
	"path/filepath"
	"sync"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/remote"
	"repro/internal/store"
)

const socketPEs = 2

// socketInstance is `kappa serve` + workers in one process: per op, listen
// on a unix socket, start one remote.Work goroutine per PE, and run the
// coordinator — over the in-memory graph (socket_dist) or over the shard
// store written in set-up (store_serve). Both use the same k, PE count and
// seeds, so their partitions must be identical op by op.
type socketInstance struct {
	g    *graph.Graph
	cfg  core.Config
	sock string
	st   string // shard store directory; empty for socket_dist
}

// socketConfig is k=4 on 2 PEs: one worker per core of the reference box.
// k=8 on 2 PEs is not used because the pipeline's stop rule then coarsens to
// about 40 nodes and a quarter of the seeds end with a cut twenty times the
// others' — a cliff that would drown every other signal in cut_sum.
func socketConfig() core.Config {
	cfg := core.NewConfig(core.Fast, 4)
	cfg.PEs = socketPEs
	return cfg
}

func setupSocket(sc scale, seed uint64, dir string) (instance, error) {
	return &socketInstance{g: meshGraph(sc, seed), cfg: socketConfig(), sock: filepath.Join(dir, "serve.sock")}, nil
}

func setupStore(sc scale, seed uint64, dir string) (instance, error) {
	g := meshGraph(sc, seed)
	cfg := socketConfig()
	st := filepath.Join(dir, "graph.kst")
	// StrategyAuto resolves to RCB on this graph, which is what the
	// in-memory coordinator of socket_dist assigns with.
	if _, err := store.Write(st, g, store.WriteOptions{PEs: socketPEs, Strategy: cfg.Distribution, Seed: seed}); err != nil {
		return nil, err
	}
	return &socketInstance{g: g, cfg: cfg, sock: filepath.Join(dir, "serve.sock"), st: st}, nil
}

func (s *socketInstance) op(ctx context.Context, _ int, seed uint64, tr *opTrace) (output, error) {
	cfg := s.cfg
	cfg.Seed = seed
	var so remote.ServeOptions
	var opts []core.Option
	if tr != nil {
		tr.stats = dist.NewTransportStats(socketPEs)
		tr.counters = &remote.Counters{}
		so = remote.ServeOptions{Stats: tr.stats, Counters: tr.counters}
		opts = tr.coreOptions()
	}

	ln, err := net.Listen("unix", s.sock)
	if err != nil {
		return output{}, err
	}
	defer ln.Close()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	workers := make([]remote.WorkResult, socketPEs)
	werrs := make([]error, socketPEs)
	for pe := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			workers[pe], werrs[pe] = remote.Work(ctx, "unix", s.sock)
		}()
	}
	var res core.Result
	if s.st == "" {
		res, err = remote.ServeWith(ctx, ln, s.g, cfg, so, opts...)
	} else {
		var st *store.Store
		if st, err = store.Open(s.st); err == nil {
			res, err = remote.ServeStore(ctx, ln, st, cfg, so, opts...)
		}
	}
	if err != nil {
		cancel() // workers still dialling or waiting for jobs must not outlive the op
	}
	wg.Wait()
	if err = errors.Join(append(werrs, err)...); err != nil {
		return output{}, err
	}
	out := output{g: s.g, k: cfg.K, eps: cfg.Eps, cut: res.Cut, blocks: res.Blocks}
	for _, w := range workers {
		out.copies = append(out.copies, w.Partition)
	}
	return out, nil
}

func (s *socketInstance) probeInput() (*graph.Graph, core.Config) { return s.g, s.cfg }
func (s *socketInstance) close() error                            { return nil }
