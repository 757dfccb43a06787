package remote_test

import (
	"bytes"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/remote"
)

// serveReport runs a metered coordinator + workers and returns the
// serialized, ZeroTimes'd run report — the coordinator-side report of the
// out-of-process backend, with per-worker transport sections from the hub.
func serveReport(t *testing.T, g *graph.Graph, cfg core.Config) ([]byte, *dist.TransportStats) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	pes := cfg.NumPEs()
	var wg sync.WaitGroup
	for i := 0; i < pes; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := remote.Work(ctx, "tcp", addr); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	stats := dist.NewTransportStats(pes)
	cfg.Coarsen = core.CoarsenDistributed
	rep := obs.NewReportObserver(g, cfg)
	res, err := remote.ServeWith(ctx, ln, g, cfg, remote.ServeOptions{Stats: stats}, core.WithObserver(rep))
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	r := rep.Finish(res, stats, nil)
	r.ZeroTimes()
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), stats
}

// TestServeStatsCountTraffic checks the hub-side instrumentation: every
// worker PE must show frames and bytes in both directions and one routed
// superstep count, visible in the coordinator's report.
func TestServeStatsCountTraffic(t *testing.T) {
	cfg := core.NewConfig(core.Fast, 4)
	cfg.Seed = 7
	cfg.PEs = 2
	report, stats := serveReport(t, gen.RGG(10, 1), cfg)

	for pe, st := range stats.Snapshot() {
		if st.FramesSent == 0 || st.FramesRecv == 0 || st.BytesSent == 0 || st.BytesRecv == 0 {
			t.Errorf("PE %d saw no traffic: %+v", pe, st)
		}
		if st.Supersteps == 0 {
			t.Errorf("PE %d routed no supersteps", pe)
		}
	}
	if !bytes.Contains(report, []byte(`"transport"`)) ||
		!bytes.Contains(report, []byte(`"frames_sent"`)) {
		t.Fatalf("report lacks the transport section:\n%s", report)
	}
}

// TestServeReportDeterministic pins that the coordinator's run report is
// byte-identical across repeated fixed-seed serve/worker sessions once
// ZeroTimes has cleared the scheduling-dependent fields — the wire traffic
// itself is deterministic, so the transport sections must match too.
func TestServeReportDeterministic(t *testing.T) {
	cfg := core.NewConfig(core.Fast, 4)
	cfg.Seed = 1217
	cfg.PEs = 2
	a, _ := serveReport(t, gen.RGG(10, 4), cfg)
	b, _ := serveReport(t, gen.RGG(10, 4), cfg)
	if !bytes.Equal(a, b) {
		t.Fatalf("serve-mode reports differ across identical sessions:\n--- first\n%s\n--- second\n%s", a, b)
	}
}
