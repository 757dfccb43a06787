package svc

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"weak"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/store"
)

// steppedRun returns a run stub that reports each start on started and then
// parks until the test sends on release (or the job's context ends). Seed 1
// then fails; every other seed succeeds with all nodes in block 0.
func steppedRun(started, release chan struct{}) runFunc {
	return func(ctx context.Context, g *graph.Graph, cfg core.Config, opts ...core.Option) (core.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
			return core.Result{}, ctx.Err()
		}
		if cfg.Seed == 1 {
			return core.Result{}, errors.New("kernel failed")
		}
		return core.Result{Blocks: make([]int32, g.NumNodes()), Balance: 1}, nil
	}
}

// weakInput takes a weak pointer to the job's input graph, which the job must
// still hold.
func weakInput(t *testing.T, s *Server, id string) weak.Pointer[graph.Graph] {
	t.Helper()
	j, ok := s.job(id)
	if !ok {
		t.Fatalf("no job %q", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.g == nil {
		t.Fatalf("job %s holds no input before it settled", id)
	}
	return weak.Make(j.g)
}

// TestSettledJobReleasesInput pins the retention contract: a job that
// settles by any path drops its input graph, so a retained job costs its
// answer and not its input, while Status still reports the input's size as
// it was at admission.
func TestSettledJobReleasesInput(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	s, h := newTestServer(t, Options{Concurrency: 1, Queue: 2, run: steppedRun(started, release)})
	submit := func(spec string) string {
		t.Helper()
		rr := submitJob(t, h, spec)
		if rr.Code != http.StatusAccepted {
			t.Fatalf("submit %s: %d %s", spec, rr.Code, rr.Body.String())
		}
		return decodeStatus(t, rr).ID
	}
	cancel := func(id string) {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("DELETE", "/api/v1/jobs/"+id, nil))
	}

	for _, tc := range []struct {
		path  string
		want  State
		spec  string
		drive func(id string) // takes the running or queued job to its end
	}{
		{"done", StateDone, tinySpec, func(string) { release <- struct{}{} }},
		{"failed", StateFailed, `{"gen":"grid:4x4","k":2,"seed":1}`, func(string) { release <- struct{}{} }},
		{"canceled while running", StateCanceled, tinySpec, cancel},
	} {
		id := submit(tc.spec)
		<-started
		wp := weakInput(t, s, id)
		tc.drive(id)
		checkReleased(t, s, id, tc.path, tc.want, wp)
	}

	// The queued paths: a first job holds the slot while the second waits.
	for _, tc := range []struct {
		path, spec string
		want       State
		drive      func(id string)
	}{
		{"canceled while queued", tinySpec, StateCanceled, cancel},
		{"expired in the queue", `{"gen":"grid:4x4","k":2,"timeout":"1ms"}`, StateFailed, func(id string) {
			j, _ := s.job(id)
			<-j.ctx.Done()
		}},
	} {
		first := submit(tinySpec)
		<-started
		id := submit(tc.spec)
		wp := weakInput(t, s, id)
		tc.drive(id)
		release <- struct{}{}
		waitTerminal(t, s, first)
		checkReleased(t, s, id, tc.path, tc.want, wp)
	}
}

// checkReleased waits for the job to settle in want and checks that its
// input graph is collected and its status still reports the input's size.
func checkReleased(t *testing.T, s *Server, id, path string, want State, wp weak.Pointer[graph.Graph]) {
	t.Helper()
	st := waitTerminal(t, s, id)
	if st.State != want {
		t.Fatalf("%s: state %s (%s), want %s", path, st.State, st.Error, want)
	}
	if st.Nodes != 16 || st.Edges != 24 {
		t.Errorf("%s: status reports %d nodes and %d edges, want the admitted 16 and 24", path, st.Nodes, st.Edges)
	}
	runtime.GC()
	runtime.GC()
	if wp.Value() != nil {
		t.Errorf("%s: the settled job's input graph is still reachable", path)
	}
}

// csrMapped reports whether the process maps the shard store's CSR segment.
// It skips the test off Linux, where /proc/self/maps does not exist.
func csrMapped(t *testing.T, storeDir string) bool {
	t.Helper()
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/self/maps")
	}
	path, err := filepath.EvalSymlinks(filepath.Join(storeDir, store.CSRFile))
	if err != nil {
		t.Fatal(err)
	}
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	return strings.Contains(string(maps), path)
}

// TestShardDirJobUnmapsWhenSettled pins that a shard_dir job closes its store
// mapping when it settles instead of leaving it to the garbage collector.
func TestShardDirJobUnmapsWhenSettled(t *testing.T) {
	dir := t.TempDir()
	kst := filepath.Join(dir, "g.kst")
	writeJobStore(t, kst, 2, dist.StrategyRanges)
	started, release := make(chan struct{}), make(chan struct{})
	s, h := newTestServer(t, Options{Concurrency: 1, Queue: 1, GraphDir: dir, run: steppedRun(started, release)})

	rr := submitJob(t, h, `{"shard_dir":"g.kst","k":4}`)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rr.Code, rr.Body.String())
	}
	<-started
	if !csrMapped(t, kst) {
		t.Fatal("the running job's CSR segment is not mapped: the test would prove nothing")
	}
	release <- struct{}{}
	if st := waitTerminal(t, s, decodeStatus(t, rr).ID); st.State != StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}
	if csrMapped(t, kst) {
		t.Fatal("the settled job's CSR segment is still mapped")
	}
}

// TestRefusedShardDirSubmitUnmaps pins that a shard_dir submit turned away
// after its graph was mapped — 400 from the graph check, 429 for a full
// queue, 503 while draining — unmaps it before it answers.
func TestRefusedShardDirSubmitUnmaps(t *testing.T) {
	dir := t.TempDir()
	kst := filepath.Join(dir, "g.kst")
	writeJobStore(t, kst, 2, dist.StrategyRanges)
	started, release := make(chan struct{}, 1), make(chan struct{})
	s, h := newTestServer(t, Options{Concurrency: 1, Queue: 1, GraphDir: dir, run: steppedRun(started, release)})

	refuse := func(why string, code int, spec string) {
		t.Helper()
		if rr := submitJob(t, h, spec); rr.Code != code {
			t.Fatalf("%s: %d, want %d (%s)", why, rr.Code, code, rr.Body.String())
		}
		if csrMapped(t, kst) {
			t.Fatalf("%s: the refused submit left the CSR segment mapped", why)
		}
	}
	refuse("more blocks than nodes", http.StatusBadRequest, `{"shard_dir":"g.kst","k":100000}`)

	submitJob(t, h, tinySpec) // holds the slot
	<-started
	submitJob(t, h, tinySpec) // fills the queue
	refuse("queue full", http.StatusTooManyRequests, `{"shard_dir":"g.kst","k":4}`)

	s.beginDrain()
	refuse("draining", http.StatusServiceUnavailable, `{"shard_dir":"g.kst","k":4}`)
	close(release)
}

// gaugeValue reads an unlabelled gauge from the registry's snapshot.
func gaugeValue(t *testing.T, r *obs.Registry, name string) float64 {
	t.Helper()
	for _, m := range r.Snapshot().Metrics {
		if m.Name == name && len(m.Samples) == 1 && m.Samples[0].Value != nil {
			return *m.Samples[0].Value
		}
	}
	t.Fatalf("no gauge %s", name)
	return 0
}

// TestRetainedBytesGauge pins kappa_jobs_retained_bytes to the bytes the
// retained finished jobs serve — partition, both report renderings, event
// payloads — fetched through the API, after every job of a mix of done,
// failed, canceled and evicted jobs.
func TestRetainedBytesGauge(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	reg := obs.NewRegistry()
	s, h := newTestServer(t, Options{Concurrency: 1, Queue: 1, Retain: 3, Registry: reg, run: steppedRun(started, release)})

	served := func(id string) int {
		j, _ := s.job(id)
		evs, _, _ := j.events.since(-1)
		n := 0
		for _, ev := range evs {
			n += len(ev.Data)
		}
		if j.Status().State != StateDone {
			return n
		}
		for _, path := range []string{"/result", "/report", "/report?zero=1"} {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest("GET", "/api/v1/jobs/"+id+path, nil))
			n += rr.Body.Len()
		}
		return n
	}
	var retained []string
	for i, step := range []string{"done", "failed", "canceled", "done", "done", "failed", "done"} {
		seed := 0
		if step == "failed" {
			seed = 1
		}
		rr := submitJob(t, h, fmt.Sprintf(`{"gen":"grid:%dx4","k":2,"seed":%d}`, 4+i, seed))
		id := decodeStatus(t, rr).ID
		<-started
		if step == "canceled" {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("DELETE", "/api/v1/jobs/"+id, nil))
		} else {
			release <- struct{}{}
		}
		if st := waitTerminal(t, s, id); string(st.State) != step {
			t.Fatalf("job %d: %s (%s), want %s", i, st.State, st.Error, step)
		}
		retained = append(retained, id)
		if len(retained) > 3 {
			retained = retained[1:]
		}
		want := 0
		for _, id := range retained {
			want += served(id)
		}
		if got := gaugeValue(t, reg, "kappa_jobs_retained_bytes"); got != float64(want) {
			t.Fatalf("after job %d (%s): kappa_jobs_retained_bytes = %v, the retained jobs serve %d bytes", i, step, got, want)
		}
	}
}

// TestCancelRacingWorkerKeepsInputUntilSettled cancels shard_dir jobs while
// two workers pick them up and run them over the store mapping. A cancel
// that finds a job queued settles it under the lock the worker's start takes,
// so no job is released, and its mapping closed, while a worker runs it:
// every job ends done or canceled, and none stays mapped.
func TestCancelRacingWorkerKeepsInputUntilSettled(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline runs")
	}
	dir := t.TempDir()
	kst := filepath.Join(dir, "g.kst")
	writeJobStore(t, kst, 2, dist.StrategyRanges)
	s, h := newTestServer(t, Options{Concurrency: 2, Queue: 16, GraphDir: dir})

	const jobs = 16
	ids := make(chan string, jobs)
	for i := 0; i < jobs; i++ {
		go func(seed int) {
			rr := submitJob(t, h, fmt.Sprintf(`{"shard_dir":"g.kst","k":4,"seed":%d}`, seed))
			if rr.Code != http.StatusAccepted {
				t.Errorf("submit %d: %d %s", seed, rr.Code, rr.Body.String())
				ids <- ""
				return
			}
			id := decodeStatus(t, rr).ID
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("DELETE", "/api/v1/jobs/"+id, nil))
			ids <- id
		}(i)
	}
	for i := 0; i < jobs; i++ {
		id := <-ids
		if id == "" {
			continue
		}
		if st := waitTerminal(t, s, id); st.State != StateDone && st.State != StateCanceled {
			t.Errorf("job %s: %s (%s), want done or canceled", id, st.State, st.Error)
		}
	}
	if csrMapped(t, kst) {
		t.Fatal("a settled job's CSR segment is still mapped")
	}
}
