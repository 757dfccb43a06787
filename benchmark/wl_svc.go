package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/svc"
)

// svcKinds is the job mix of svc_mix; job i is of kind i mod svcKinds. The
// four kinds reach the pipeline through the service's four graph sources.
const svcKinds = 4

// svcCycle is the fixed op set of svc_mix: every kind with eight seeds.
const svcCycle = 8 * svcKinds

// svcShards is the shard count of the store behind the shard_dir jobs: one
// PE per block, the pipeline's own default, which a shard_dir job adopts.
const svcShards = 8

// svcJob is one kind of job: the graph the benchmark expects the service to
// partition (for the oracle and the bare-run probe) and the configuration
// the service derives from the spec.
type svcJob struct {
	g   *graph.Graph
	cfg core.Config
}

// svcInstance is `kappa api` in one process: svc.New mounted on the
// hardened obs.NewServer, listening on loopback, driven over real HTTP.
type svcInstance struct {
	jobs   [svcKinds]svcJob
	bodies [][]byte // submit bodies of the fixed op set, by op index
	reg    *obs.Registry
	server *svc.Server
	http   *http.Server
	base   string
	client *http.Client
}

// svcTimes is what a traced service op learns beyond its spans: client-side
// request times, the server's own account from the status JSON, and sizes.
type svcTimes struct {
	submit, fetch  float64
	queue, run     float64
	events, bytes  int
	rejectedSubmit bool
}

func setupSvc(sc scale, seed uint64, dir string) (instance, error) {
	delaunay := gen.DelaunayX(sc.svcDelaunay, seed)
	rgg := svcGraph(sc, seed)
	rmatSpec := fmt.Sprintf("rmat:%d", sc.svcRMAT)
	rmat, err := gen.FromSpec(rmatSpec)
	if err != nil {
		return nil, err
	}
	var metis bytes.Buffer
	if err := graphio.WriteMETIS(&metis, delaunay); err != nil {
		return nil, err
	}
	if err := graphio.WriteFile(filepath.Join(dir, "rgg.bin"), rgg, graphio.FormatBinary); err != nil {
		return nil, err
	}
	if _, err := store.Write(filepath.Join(dir, "rgg.kst"), rgg, store.WriteOptions{PEs: svcShards, Seed: seed}); err != nil {
		return nil, err
	}

	k8, k16 := core.NewConfig(core.Fast, 8), core.NewConfig(core.Fast, 16)
	storeCfg := k8
	storeCfg.PEs = svcShards // a shard_dir job adopts the manifest's shard count
	s := &svcInstance{
		jobs: [svcKinds]svcJob{
			{g: delaunay, cfg: k8},  // inline METIS text in the request
			{g: rgg, cfg: k8},       // graph_file, binary
			{g: rgg, cfg: storeCfg}, // shard_dir
			{g: rmat, cfg: k16},     // gen spec, generated by the service
		},
		reg:    obs.NewRegistry(),
		client: &http.Client{},
	}
	specs := [svcKinds]svc.JobSpec{
		{Graph: metis.String(), K: 8},
		{GraphFile: "rgg.bin", K: 8},
		{ShardDir: "rgg.kst", K: 8},
		{Gen: rmatSpec, K: 16},
	}
	for i := 0; i < svcCycle; i++ {
		spec := specs[i%svcKinds]
		spec.Seed = opSeed(seed, i, svcCycle)
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		s.bodies = append(s.bodies, body)
	}

	// Retain is far below the daemon's default of 1024 so that the memory
	// finished jobs hold does not grow with the number of ops a run had time
	// for; a client fetches its result at once, so 16 is plenty for two.
	s.server = svc.New(svc.Options{GraphDir: dir, Registry: s.reg, Retain: 16})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.server.Close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.http = obs.NewServer(s.server.Handler())
	go s.http.Serve(ln) // returns when close() shuts the server down
	return s, nil
}

func (s *svcInstance) close() error {
	s.client.CloseIdleConnections()
	err := s.http.Close()
	s.server.Close()
	return err
}

func (s *svcInstance) probeInput() (*graph.Graph, core.Config) {
	return s.jobs[1].g, s.jobs[1].cfg
}

// op is one submit-to-result round trip: POST the job, follow its SSE
// stream to EOF, read the final status, fetch the partition.
func (s *svcInstance) op(ctx context.Context, i int, seed uint64, tr *opTrace) (output, error) {
	job := s.jobs[i%svcKinds]
	t0 := time.Now()
	var st svc.Status
	code, err := s.getJSON(ctx, http.MethodPost, "/api/v1/jobs", s.bodies[i%len(s.bodies)], &st)
	tSubmit := time.Now()
	if err != nil {
		return output{}, err
	}
	if code != http.StatusAccepted {
		if tr != nil {
			tr.svc.rejectedSubmit = true
		}
		return output{}, fmt.Errorf("submit answered %d", code)
	}
	if st.Seed != seed {
		return output{}, fmt.Errorf("job runs with seed %d, op %d wants %d", st.Seed, i, seed)
	}
	if tr != nil {
		tr.last = tSubmit // the queue span starts when the submit returns
	}
	events, err := s.follow(ctx, st.Events, tr)
	tEOF := time.Now()
	if err != nil {
		return output{}, err
	}
	if code, err = s.getJSON(ctx, http.MethodGet, "/api/v1/jobs/"+st.ID, nil, &st); err != nil {
		return output{}, err
	}
	if code != http.StatusOK || st.State != svc.StateDone {
		return output{}, fmt.Errorf("job %s ended %s (%d): %s", st.ID, st.State, code, st.Error)
	}
	text, err := s.get(ctx, st.Partition)
	if err != nil {
		return output{}, err
	}
	if tr != nil {
		now := time.Now()
		tr.rec.add(tr.root, tr.op, "svc.submit", t0, tSubmit)
		tr.rec.add(tr.root, tr.op, "svc.fetch", tEOF, now)
		tr.svc = svcTimes{
			submit: tSubmit.Sub(t0).Seconds(), fetch: now.Sub(tEOF).Seconds(),
			queue: st.QueueSec, run: st.RunSec, events: events, bytes: len(text),
		}
	}
	return output{g: job.g, k: job.cfg.K, eps: job.cfg.Eps, cut: st.Cut, text: text}, nil
}

func (s *svcInstance) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return s.client.Do(req)
}

func (s *svcInstance) getJSON(ctx context.Context, method, path string, body []byte, into any) (int, error) {
	resp, err := s.do(ctx, method, path, body)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		io.Copy(io.Discard, resp.Body) // so the connection is reused
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(into)
}

func (s *svcInstance) get(ctx context.Context, path string) ([]byte, error) {
	resp, err := s.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s answered %d", path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// follow reads the job's event stream to EOF and returns the number of
// events. On a traced op each event's arrival drives the tracer: the
// service's stream mirrors the pipeline's trace events, so the same spans
// come out, seen from the client's side of the socket.
func (s *svcInstance) follow(ctx context.Context, path string, tr *opTrace) (int, error) {
	resp, err := s.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET %s answered %d", path, resp.StatusCode)
	}
	events := 0
	var typ string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			typ = v
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		events++
		if tr != nil {
			tr.onSSE(typ, data, time.Now())
		}
	}
	return events, sc.Err()
}

// onSSE feeds one service event into the tracer.
func (t *opTrace) onSSE(typ, data string, now time.Time) {
	var ev struct {
		State string `json:"state"`
		Phase string `json:"phase"`
		Level int    `json:"level"`
		Cut   int64  `json:"cut"`
	}
	if json.Unmarshal([]byte(data), &ev) != nil {
		return
	}
	switch typ {
	case "state":
		if ev.State == string(svc.StateRunning) {
			t.rec.add(t.root, t.op, "svc.until_running", t.last, now)
			t.started(now)
		}
	case "level":
		t.levelEnd(now)
	case "init":
		t.initCut = ev.Cut
	case "refine":
		t.refineIter(ev.Level, now)
	case "phase":
		t.phaseEnd(ev.Phase, now)
	}
}
