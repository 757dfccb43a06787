package remote_test

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/remote"
	"repro/internal/wire"
)

// runServeWorkers runs a coordinator and pes workers over localhost TCP —
// the full out-of-process protocol, minus the process boundary (the
// cmd/kappa test covers that part with real OS processes).
func runServeWorkers(t *testing.T, g *graph.Graph, cfg core.Config, so remote.ServeOptions, opts ...core.Option) (core.Result, []remote.WorkResult) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	pes := cfg.NumPEs()
	workers := make([]remote.WorkResult, pes)
	var wg sync.WaitGroup
	for i := 0; i < pes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wr, err := remote.Work(ctx, "tcp", addr)
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
				return
			}
			workers[i] = wr
		}(i)
	}
	res, err := remote.ServeWith(ctx, ln, g, cfg, so, opts...)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	return res, workers
}

// TestServeMatchesInProcess is the acceptance pin of the out-of-process
// backend: coordinator + workers over sockets produce a byte-identical
// partition to the in-process Exchanger run at the same seed.
func TestServeMatchesInProcess(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		pes  int
		k    int
	}{
		{"rgg-2pe", gen.RGG(11, 3), 2, 8},
		{"grid-3pe", gen.Grid2D(40, 40), 3, 6},
		{"grid3d-2pe", gen.Grid3D(12, 10, 8), 2, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.NewConfig(core.Fast, tc.k)
			cfg.Seed = 4242
			cfg.PEs = tc.pes
			cfg.Coarsen = core.CoarsenDistributed

			want, err := core.Run(context.Background(), tc.g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, workers := runServeWorkers(t, tc.g, cfg, remote.ServeOptions{})

			if got.Cut != want.Cut || !reflect.DeepEqual(got.Blocks, want.Blocks) {
				t.Fatalf("out-of-process partition diverged: cut %d vs %d", got.Cut, want.Cut)
			}
			if got.Levels == 0 {
				t.Fatal("no contraction levels built remotely")
			}
			for i, wr := range workers {
				// Workers count jobs served; the coordinator may reject the
				// last level for shrinking too little, so jobs ∈ [levels, levels+1].
				if wr.Levels < got.Levels || wr.Levels > got.Levels+1 {
					t.Errorf("worker %d worked %d levels, coordinator built %d", i, wr.Levels, got.Levels)
				}
				if !reflect.DeepEqual(wr.Partition, want.Blocks) {
					t.Errorf("worker %d received a different final partition", i)
				}
			}
		})
	}
}

// TestServeObserverEvents checks that the remote coarsener feeds the same
// typed trace machinery: one LevelEvent per level with kernel timings.
func TestServeObserverEvents(t *testing.T) {
	g := gen.RGG(10, 1)
	cfg := core.NewConfig(core.Fast, 4)
	cfg.Seed = 7
	cfg.PEs = 2

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for i := 0; i < 2; i++ {
		go remote.Work(ctx, "tcp", ln.Addr().String())
	}
	var levels int
	res, err := remote.ServeWith(ctx, ln, g, cfg, remote.ServeOptions{}, core.WithObserver(core.ObserverFunc(func(ev core.TraceEvent) {
		if _, ok := ev.(core.LevelEvent); ok {
			levels++
		}
	})))
	if err != nil {
		t.Fatal(err)
	}
	if levels != res.Levels {
		t.Fatalf("saw %d LevelEvents for %d levels", levels, res.Levels)
	}
}

// TestServeContextCancel pins the abort path: cancelling the context while
// the coordinator waits for workers must fail promptly, not hang.
func TestServeContextCancel(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		cfg := core.NewConfig(core.Fast, 4)
		cfg.PEs = 2
		_, err := remote.ServeWith(ctx, ln, gen.RGG(8, 1), cfg, remote.ServeOptions{})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let Serve reach Accept
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled Serve returned nil error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled Serve did not return")
	}
}

// TestWorkerRefusesOlderWireVersion hands a worker the assignment of a
// coordinator one wire version behind — version 2 Results carried the coarse
// graph this build's coordinator contracts itself — and wants the handshake
// refused with the version message, before any job is read.
func TestWorkerRefusesOlderWireVersion(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if _, err := dist.ReadHello(br); err != nil {
			return
		}
		old := wire.Assign{Version: wire.Version - 1, PE: 0, PEs: 1}
		if err := wire.WriteFrame(conn, wire.KindAssign, wire.AppendAssign(wire.NewFrame(16), old)); err != nil {
			return
		}
		io.Copy(io.Discard, br) // until the worker hangs up
	}()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_, err = remote.Work(ctx, "tcp", ln.Addr().String())
	want := fmt.Sprintf("coordinator speaks wire version %d, this worker %d", wire.Version-1, wire.Version)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("worker against a version %d coordinator: %v, want %q", wire.Version-1, err, want)
	}
}
