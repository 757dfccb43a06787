package svc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// blockingRun returns a run stub that parks every job until release is
// closed (or its context ends), reporting each start on started. It stands
// in for the pipeline so queue, deadline, and drain semantics can be tested
// deterministically.
func blockingRun(started chan<- struct{}, release <-chan struct{}) runFunc {
	return func(ctx context.Context, g *graph.Graph, cfg core.Config, opts ...core.Option) (core.Result, error) {
		if started != nil {
			started <- struct{}{}
		}
		select {
		case <-release:
			return core.Result{Blocks: make([]int32, g.NumNodes()), Balance: 1}, nil
		case <-ctx.Done():
			return core.Result{}, ctx.Err()
		}
	}
}

// newTestServer builds a Server with the given seams and registers cleanup.
func newTestServer(t *testing.T, opts Options) (*Server, http.Handler) {
	t.Helper()
	s := New(opts)
	t.Cleanup(s.Close)
	return s, s.Handler()
}

// submitJob posts a spec and returns the response.
func submitJob(t *testing.T, h http.Handler, spec string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/api/v1/jobs", strings.NewReader(spec))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// decodeStatus unmarshals a Status response body.
func decodeStatus(t *testing.T, rr *httptest.ResponseRecorder) Status {
	t.Helper()
	var st Status
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatalf("bad status body %q: %v", rr.Body.String(), err)
	}
	return st
}

// waitTerminal blocks until the job settles and returns its status.
func waitTerminal(t *testing.T, s *Server, id string) Status {
	t.Helper()
	j, ok := s.job(id)
	if !ok {
		t.Fatalf("no job %q", id)
	}
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not settle", id)
	}
	return j.Status()
}

const tinySpec = `{"gen":"grid:4x4","k":2}`

func TestQueueFullBackpressure(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	s, h := newTestServer(t, Options{
		Concurrency: 1, Queue: 1, RetryAfter: 7 * time.Second,
		run: blockingRun(started, release),
	})

	// First job occupies the single slot, second fills the single queue
	// place, third must bounce with 429 and the configured Retry-After.
	rr1 := submitJob(t, h, tinySpec)
	if rr1.Code != http.StatusAccepted {
		t.Fatalf("submit 1: %d %s", rr1.Code, rr1.Body.String())
	}
	<-started // job 1 is in the slot, not the queue
	rr2 := submitJob(t, h, tinySpec)
	if rr2.Code != http.StatusAccepted {
		t.Fatalf("submit 2: %d %s", rr2.Code, rr2.Body.String())
	}
	rr3 := submitJob(t, h, tinySpec)
	if rr3.Code != http.StatusTooManyRequests {
		t.Fatalf("submit 3: %d, want 429 (body %s)", rr3.Code, rr3.Body.String())
	}
	if got := rr3.Header().Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want \"7\"", got)
	}
	if got := s.metrics.rejected.With("queue_full").Value(); got != 1 {
		t.Fatalf("kappa_jobs_rejected_total{queue_full} = %v, want 1", got)
	}

	// The rejection created no job: the admitted ones proceed untouched.
	close(release)
	for _, id := range []string{decodeStatus(t, rr1).ID, decodeStatus(t, rr2).ID} {
		if st := waitTerminal(t, s, id); st.State != StateDone {
			t.Fatalf("job %s: %s (%s), want done", id, st.State, st.Error)
		}
	}
	if got := s.metrics.done.Value(); got != 2 {
		t.Fatalf("kappa_jobs_done_total = %v, want 2", got)
	}
}

func TestDeadlineExpiryFailsJob(t *testing.T) {
	s, h := newTestServer(t, Options{
		Concurrency: 1, Queue: 1,
		run: blockingRun(nil, nil), // parks until the deadline fires
	})
	rr := submitJob(t, h, `{"gen":"grid:4x4","k":2,"timeout":"30ms"}`)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rr.Code, rr.Body.String())
	}
	st := waitTerminal(t, s, decodeStatus(t, rr).ID)
	if st.State != StateFailed {
		t.Fatalf("state = %s, want failed (deadline expiry is not a client cancel)", st.State)
	}
	if !strings.Contains(st.Error, context.DeadlineExceeded.Error()) {
		t.Fatalf("error %q does not mention the deadline", st.Error)
	}
	if got := s.metrics.failed.Value(); got != 1 {
		t.Fatalf("kappa_jobs_failed_total = %v, want 1", got)
	}
}

func TestServerDefaultTimeoutApplies(t *testing.T) {
	s, h := newTestServer(t, Options{
		Concurrency: 1, Queue: 1, DefaultTimeout: 30 * time.Millisecond,
		run: blockingRun(nil, nil),
	})
	rr := submitJob(t, h, tinySpec) // no timeout in the spec
	st := waitTerminal(t, s, decodeStatus(t, rr).ID)
	if st.State != StateFailed || !strings.Contains(st.Error, "deadline") {
		t.Fatalf("state = %s (%s), want deadline failure from server default", st.State, st.Error)
	}
}

func TestMaxTimeoutClampsRequest(t *testing.T) {
	s, h := newTestServer(t, Options{
		Concurrency: 1, Queue: 1, MaxTimeout: 30 * time.Millisecond,
		run: blockingRun(nil, nil),
	})
	// The client asks for an hour; the server cap must win.
	rr := submitJob(t, h, `{"gen":"grid:4x4","k":2,"timeout":"1h"}`)
	st := waitTerminal(t, s, decodeStatus(t, rr).ID)
	if st.State != StateFailed || !strings.Contains(st.Error, "deadline") {
		t.Fatalf("state = %s (%s), want deadline failure from clamped timeout", st.State, st.Error)
	}
}

func TestClientCancelRunningJob(t *testing.T) {
	started := make(chan struct{}, 1)
	s, h := newTestServer(t, Options{
		Concurrency: 1, Queue: 1,
		run: blockingRun(started, nil),
	})
	rr := submitJob(t, h, tinySpec)
	id := decodeStatus(t, rr).ID
	<-started

	req := httptest.NewRequest("DELETE", "/api/v1/jobs/"+id, nil)
	del := httptest.NewRecorder()
	h.ServeHTTP(del, req)
	if del.Code != http.StatusOK {
		t.Fatalf("cancel: %d %s", del.Code, del.Body.String())
	}
	st := waitTerminal(t, s, id)
	if st.State != StateCanceled {
		t.Fatalf("state = %s (%s), want canceled", st.State, st.Error)
	}
	if got := s.metrics.canceled.Value(); got != 1 {
		t.Fatalf("kappa_jobs_canceled_total = %v, want 1", got)
	}
}

func TestCancelQueuedJobSettlesImmediately(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s, h := newTestServer(t, Options{
		Concurrency: 1, Queue: 1,
		run: blockingRun(started, release),
	})
	submitJob(t, h, tinySpec)
	<-started
	rr2 := submitJob(t, h, tinySpec)
	id2 := decodeStatus(t, rr2).ID

	// Cancel the queued job: it must settle canceled now, not when a worker
	// eventually reaches it.
	req := httptest.NewRequest("DELETE", "/api/v1/jobs/"+id2, nil)
	h.ServeHTTP(httptest.NewRecorder(), req)
	st := waitTerminal(t, s, id2)
	if st.State != StateCanceled {
		t.Fatalf("queued cancel: state = %s, want canceled", st.State)
	}
	close(release) // job 1 finishes; the worker skips the canceled job 2
	// The queue frees as the worker sweeps past the canceled job; a
	// follow-up submission must then be admitted and run to completion.
	var follow *httptest.ResponseRecorder
	for deadline := time.Now().Add(30 * time.Second); ; {
		follow = submitJob(t, h, tinySpec)
		if follow.Code == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follow-up submit never admitted: %d %s", follow.Code, follow.Body.String())
		}
		time.Sleep(time.Millisecond)
	}
	if st := waitTerminal(t, s, decodeStatus(t, follow).ID); st.State != StateDone {
		t.Fatalf("follow-up job: %s (%s), want done — worker slot must survive", st.State, st.Error)
	}
}

func TestPanicIsolation(t *testing.T) {
	s, h := newTestServer(t, Options{
		Concurrency: 1, Queue: 2,
		run: func(ctx context.Context, g *graph.Graph, cfg core.Config, opts ...core.Option) (core.Result, error) {
			if cfg.Seed == 666 {
				panic("kernel exploded")
			}
			return core.Result{Blocks: make([]int32, g.NumNodes()), Balance: 1}, nil
		},
	})
	bad := submitJob(t, h, `{"gen":"grid:4x4","k":2,"seed":666}`)
	good := submitJob(t, h, tinySpec)

	st := waitTerminal(t, s, decodeStatus(t, bad).ID)
	if st.State != StateFailed || !strings.Contains(st.Error, "kernel exploded") {
		t.Fatalf("panicked job: %s (%q), want failed with panic value", st.State, st.Error)
	}
	// The same worker goroutine must go on to run the next job.
	if st := waitTerminal(t, s, decodeStatus(t, good).ID); st.State != StateDone {
		t.Fatalf("job after panic: %s (%s), want done", st.State, st.Error)
	}
	if got := s.metrics.panics.Value(); got != 1 {
		t.Fatalf("kappa_jobs_panics_total = %v, want 1", got)
	}
}

func TestGracefulDrain(t *testing.T) {
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	s, h := newTestServer(t, Options{
		Concurrency: 1, Queue: 2,
		run: blockingRun(started, release),
	})
	running := submitJob(t, h, tinySpec)
	<-started
	queued := submitJob(t, h, tinySpec)

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	for !s.isDraining() {
		time.Sleep(time.Millisecond)
	}

	// Draining: readiness flips to 503 and new submissions are refused with
	// Retry-After, but the admitted jobs are still being worked.
	ready := httptest.NewRecorder()
	h.ServeHTTP(ready, httptest.NewRequest("GET", "/readyz", nil))
	if ready.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", ready.Code)
	}
	rej := submitJob(t, h, tinySpec)
	if rej.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", rej.Code)
	}
	if rej.Header().Get("Retry-After") == "" {
		t.Fatal("drain rejection carries no Retry-After")
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with jobs in flight", err)
	default:
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// Both the running and the queued job finished — drain waits for the
	// whole admitted backlog, not just the running set.
	for _, rr := range []*httptest.ResponseRecorder{running, queued} {
		if st := waitTerminal(t, s, decodeStatus(t, rr).ID); st.State != StateDone {
			t.Fatalf("job %s after drain: %s (%s), want done", st.ID, st.State, st.Error)
		}
	}
	// Liveness stays green the whole time: a draining server is still alive.
	health := httptest.NewRecorder()
	h.ServeHTTP(health, httptest.NewRequest("GET", "/healthz", nil))
	if health.Code != http.StatusOK {
		t.Fatalf("healthz after drain: %d", health.Code)
	}
}

func TestDrainGraceExpiryCancelsInFlight(t *testing.T) {
	started := make(chan struct{}, 1)
	s, h := newTestServer(t, Options{
		Concurrency: 1, Queue: 1,
		run: blockingRun(started, nil), // never releases: only ctx frees it
	})
	rr := submitJob(t, h, tinySpec)
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want DeadlineExceeded", err)
	}
	// The expired grace deadline-canceled the job; it settled (failed, not
	// canceled: the client never asked) rather than leaking.
	st := waitTerminal(t, s, decodeStatus(t, rr).ID)
	if st.State != StateFailed {
		t.Fatalf("job after hard drain: %s (%s), want failed", st.State, st.Error)
	}
}

func TestSubmitValidation(t *testing.T) {
	s, h := newTestServer(t, Options{
		Concurrency: 1, Queue: 1, MaxBody: 256,
		run: blockingRun(nil, make(chan struct{})),
	})
	cases := []struct {
		name, body string
		code       int
		msg        string // the error must mention this
	}{
		{"malformed json", `{"gen":`, http.StatusBadRequest, ""},
		{"unknown field", `{"gen":"grid:4x4","k":2,"bogus":1}`, http.StatusBadRequest, ""},
		{"no graph source", `{"k":2}`, http.StatusBadRequest, ""},
		{"two graph sources", `{"gen":"grid:4x4","graph":"2 1\n2\n1\n","k":2}`, http.StatusBadRequest, ""},
		{"hostile gen spec", `{"gen":"rgg:-1","k":2}`, http.StatusBadRequest, ""},
		{"bad k", `{"gen":"grid:4x4","k":0}`, http.StatusBadRequest, ""},
		{"more blocks than nodes", `{"gen":"grid:4x4","k":100000}`, http.StatusBadRequest, "16 nodes"},
		{"bad preset", `{"gen":"grid:4x4","k":2,"preset":"turbo"}`, http.StatusBadRequest, ""},
		// The names are checked before the graph is touched: the missing
		// file is never opened, the rejection is about the preset.
		{"bad preset, missing file", `{"graph_file":"/nonexistent/g.graph","k":2,"preset":"turbo"}`, http.StatusBadRequest, `unknown preset \"turbo\"`},
		{"bad timeout", `{"gen":"grid:4x4","k":2,"timeout":"yes"}`, http.StatusBadRequest, ""},
		{"body too large", `{"gen":"grid:4x4","k":2,"graph":"` + strings.Repeat("x", 512) + `"}`, http.StatusRequestEntityTooLarge, ""},
		{"path escape", `{"graph_file":"../../etc/passwd","k":2}`, http.StatusBadRequest, ""},
	}
	for _, tc := range cases {
		rr := submitJob(t, h, tc.body)
		if rr.Code != tc.code || !strings.Contains(rr.Body.String(), tc.msg) {
			t.Errorf("%s: %d, want %d mentioning %q (body %s)", tc.name, rr.Code, tc.code, tc.msg, rr.Body.String())
		}
	}
	// Rejections created no jobs.
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d jobs exist after pure rejections", n)
	}
	if got := s.metrics.rejected.With("invalid").Value(); got != float64(len(cases)) {
		t.Fatalf("kappa_jobs_rejected_total{invalid} = %v, want %d", got, len(cases))
	}
}

func TestGraphDirConfinement(t *testing.T) {
	dir := t.TempDir()
	if err := writeFileHelper(dir+"/mesh.graph", "3 2\n2\n1 3\n2\n"); err != nil {
		t.Fatal(err)
	}
	s, h := newTestServer(t, Options{
		Concurrency: 1, Queue: 1, GraphDir: dir,
		run: blockingRun(nil, closedChan()),
	})
	rr := submitJob(t, h, `{"graph_file":"mesh.graph","k":2}`)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("in-dir file: %d %s", rr.Code, rr.Body.String())
	}
	if st := waitTerminal(t, s, decodeStatus(t, rr).ID); st.Nodes != 3 {
		t.Fatalf("loaded graph has %d nodes, want 3", st.Nodes)
	}
	for _, path := range []string{"../mesh.graph", "/etc/passwd", "sub/../../mesh.graph"} {
		rr := submitJob(t, h, fmt.Sprintf(`{"graph_file":%q,"k":2}`, path))
		if rr.Code != http.StatusBadRequest {
			t.Errorf("escape %q: %d, want 400", path, rr.Code)
		}
	}
}

func TestStatusResultAndListEndpoints(t *testing.T) {
	s, h := newTestServer(t, Options{Concurrency: 1, Queue: 4}) // real pipeline
	ids := make([]string, 3)
	for i := range ids {
		rr := submitJob(t, h, fmt.Sprintf(`{"gen":"grid:6x6","k":2,"seed":%d}`, i))
		if rr.Code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, rr.Code, rr.Body.String())
		}
		st := decodeStatus(t, rr)
		ids[i] = st.ID
		if rr.Header().Get("Location") != "/api/v1/jobs/"+st.ID {
			t.Fatalf("Location = %q", rr.Header().Get("Location"))
		}
	}
	for _, id := range ids {
		if st := waitTerminal(t, s, id); st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
	}

	// Status carries the result figures and artifact links.
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/api/v1/jobs/"+ids[0], nil))
	st := decodeStatus(t, rr)
	if st.State != StateDone || st.Partition == "" || st.Report == "" || st.Balance <= 0 {
		t.Fatalf("done status incomplete: %+v", st)
	}

	// The result is one block per node.
	res := httptest.NewRecorder()
	h.ServeHTTP(res, httptest.NewRequest("GET", st.Partition, nil))
	if res.Code != http.StatusOK {
		t.Fatalf("result: %d", res.Code)
	}
	if lines := strings.Count(res.Body.String(), "\n"); lines != 36 {
		t.Fatalf("partition has %d lines, want 36", lines)
	}

	// The report parses and carries the deterministic sections.
	rep := httptest.NewRecorder()
	h.ServeHTTP(rep, httptest.NewRequest("GET", st.Report+"?zero=1", nil))
	var doc map[string]any
	if err := json.Unmarshal(rep.Body.Bytes(), &doc); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	for _, key := range []string{"graph", "config", "result", "arena"} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("report lacks %q section: %s", key, rep.Body.String())
		}
	}

	// The listing is ordered by job number.
	list := httptest.NewRecorder()
	h.ServeHTTP(list, httptest.NewRequest("GET", "/api/v1/jobs", nil))
	var body struct {
		Jobs []Status `json:"jobs"`
	}
	if err := json.Unmarshal(list.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Jobs) != 3 {
		t.Fatalf("list has %d jobs, want 3", len(body.Jobs))
	}
	for i, st := range body.Jobs {
		if st.ID != ids[i] {
			t.Fatalf("list order: job %d is %s, want %s", i, st.ID, ids[i])
		}
	}

	// Unknown ids 404; results of unfinished jobs 409 is covered elsewhere.
	nf := httptest.NewRecorder()
	h.ServeHTTP(nf, httptest.NewRequest("GET", "/api/v1/jobs/j999", nil))
	if nf.Code != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", nf.Code)
	}
}

func TestResultBeforeDoneConflicts(t *testing.T) {
	started := make(chan struct{}, 1)
	_, h := newTestServer(t, Options{
		Concurrency: 1, Queue: 1,
		run: blockingRun(started, nil),
	})
	rr := submitJob(t, h, tinySpec)
	id := decodeStatus(t, rr).ID
	<-started
	for _, path := range []string{"/result", "/report"} {
		res := httptest.NewRecorder()
		h.ServeHTTP(res, httptest.NewRequest("GET", "/api/v1/jobs/"+id+path, nil))
		if res.Code != http.StatusConflict {
			t.Fatalf("GET %s on running job: %d, want 409", path, res.Code)
		}
	}
}

func TestRetentionEvictsOldestFinished(t *testing.T) {
	s, h := newTestServer(t, Options{
		Concurrency: 1, Queue: 8, Retain: 2,
		run: blockingRun(nil, closedChan()),
	})
	ids := make([]string, 4)
	for i := range ids {
		rr := submitJob(t, h, tinySpec)
		ids[i] = decodeStatus(t, rr).ID
		waitTerminal(t, s, ids[i])
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.jobs) != 2 {
		t.Fatalf("%d jobs retained, want 2", len(s.jobs))
	}
	for _, gone := range ids[:2] {
		if _, ok := s.jobs[gone]; ok {
			t.Fatalf("job %s still retained, want evicted", gone)
		}
	}
	for _, kept := range ids[2:] {
		if _, ok := s.jobs[kept]; !ok {
			t.Fatalf("job %s evicted, want retained", kept)
		}
	}
}

// closedChan returns an already-closed release channel: jobs complete
// immediately.
func closedChan() <-chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

// writeFileHelper writes a small test fixture.
func writeFileHelper(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
