package svc

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/internal/mem"
	"repro/internal/obs"
)

// TestJobMatchesDirectRunByteForByte pins the service's core contract: a job
// submitted over the API produces a partition and a ZeroTimes run report
// byte-identical to the same configuration run directly through core.Run —
// the bytes a `kappa -gen rgg:8 -k 4 -seed 7 -workers 2 -coarsen distributed
// -out/-report` invocation writes. Two identical jobs are submitted so the
// second one runs on a worker arena already warm from the first: the pooled
// arena must be invisible in the report (the arena section is a per-job
// delta).
func TestJobMatchesDirectRunByteForByte(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline run")
	}

	// The reference bytes, computed the way the CLI does.
	g, err := gen.FromSpec("rgg:8")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.NewConfig(core.Fast, 4)
	cfg.Seed = 7
	cfg.Workers = 2
	cfg.Coarsen = core.CoarsenDistributed
	stats := dist.NewTransportStats(cfg.NumPEs())
	reporter := obs.NewReportObserver(g, cfg)
	arena := mem.NewArena()
	res, err := core.Run(context.Background(), g, cfg,
		core.WithArena(arena), core.WithTransportStats(stats), core.WithObserver(reporter))
	if err != nil {
		t.Fatal(err)
	}
	wantPartition := graphio.AppendPartition(nil, res.Blocks)
	rep := reporter.Finish(res, stats, arena)
	rep.ZeroTimes()
	wantReport, err := renderReport(rep)
	if err != nil {
		t.Fatal(err)
	}

	s, h := newTestServer(t, Options{Concurrency: 1, Queue: 2})
	spec := `{"gen":"rgg:8","k":4,"seed":7,"workers":2,"coarsen":"distributed"}`
	for round := 1; round <= 2; round++ {
		rr := submitJob(t, h, spec)
		if rr.Code != http.StatusAccepted {
			t.Fatalf("round %d submit: %d %s", round, rr.Code, rr.Body.String())
		}
		st := waitTerminal(t, s, decodeStatus(t, rr).ID)
		if st.State != StateDone {
			t.Fatalf("round %d: %s (%s)", round, st.State, st.Error)
		}
		if st.Cut != res.Cut {
			t.Fatalf("round %d: cut %d, direct run %d", round, st.Cut, res.Cut)
		}

		got := httptest.NewRecorder()
		h.ServeHTTP(got, httptest.NewRequest("GET", st.Partition, nil))
		if !bytes.Equal(got.Body.Bytes(), wantPartition) {
			t.Fatalf("round %d: API partition differs from direct run (%d vs %d bytes)",
				round, got.Body.Len(), len(wantPartition))
		}

		repGot := httptest.NewRecorder()
		h.ServeHTTP(repGot, httptest.NewRequest("GET", st.Report+"?zero=1", nil))
		if !bytes.Equal(repGot.Body.Bytes(), wantReport) {
			t.Fatalf("round %d: API zero-report differs from direct run:\n--- api ---\n%s\n--- direct ---\n%s",
				round, repGot.Body.Bytes(), wantReport)
		}
	}
}

// TestConcurrentJobsDeterministic runs the same job on several workers at
// once: concurrency must not leak into any job's partition bytes.
func TestConcurrentJobsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline runs")
	}
	s, h := newTestServer(t, Options{Concurrency: 4, Queue: 8})
	const jobs = 6
	ids := make([]string, jobs)
	for i := range ids {
		rr := submitJob(t, h, `{"gen":"grid:12x12","k":3,"seed":9}`)
		if rr.Code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, rr.Code, rr.Body.String())
		}
		ids[i] = decodeStatus(t, rr).ID
	}
	var want []byte
	for i, id := range ids {
		st := waitTerminal(t, s, id)
		if st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
		got := httptest.NewRecorder()
		h.ServeHTTP(got, httptest.NewRequest("GET", fmt.Sprintf("/api/v1/jobs/%s/result", id), nil))
		if i == 0 {
			want = append([]byte(nil), got.Body.Bytes()...)
			continue
		}
		if !bytes.Equal(got.Body.Bytes(), want) {
			t.Fatalf("job %s partition differs from job %s at the same seed", id, ids[0])
		}
	}
}
