package svc

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/obs"
	"repro/internal/store"
)

// JobSpec is the submit-request body. Fields mirror the kappa CLI flags
// one-to-one so a job's result is byte-identical to the equivalent one-shot
// run: {"gen":"rgg:10","k":4,"seed":7} is `kappa -gen rgg:10 -k 4 -seed 7`.
// Exactly one graph source — gen, graph_file, or graph — must be set.
type JobSpec struct {
	// Gen is a synthetic-generator spec (rgg:S, grid:WxH, road:N, ...),
	// the CLI's -gen.
	Gen string `json:"gen,omitempty"`
	// GraphFile names a server-side graph file (METIS or binary, format
	// sniffed), the CLI's -in. When the server was started with a graph
	// directory, the path is resolved inside it and may not escape.
	GraphFile string `json:"graph_file,omitempty"`
	// Graph is an inline METIS-format graph, for clients that ship the
	// input in the request. Bounded by the server's max body size.
	Graph string `json:"graph,omitempty"`
	// ShardDir names a server-side shard store directory (kappa shard
	// output), the serve subcommand's -shards. The global graph is
	// memory-mapped from the store's CSR segment, and the manifest's shard
	// count and distribution strategy are adopted into the job's config —
	// a conflicting pes or dist is rejected at submit time. Confined to the
	// server's graph directory like graph_file.
	ShardDir string `json:"shard_dir,omitempty"`

	K       int     `json:"k"`
	Preset  string  `json:"preset,omitempty"`  // minimal | fast | strong; default fast
	Eps     float64 `json:"eps,omitempty"`     // default 0.03
	Seed    uint64  `json:"seed,omitempty"`    // default 0
	PEs     int     `json:"pes,omitempty"`     // default: k
	Dist    string  `json:"dist,omitempty"`    // auto | ranges | rcb
	Coarsen string  `json:"coarsen,omitempty"` // shared | distributed
	Workers int     `json:"workers,omitempty"` // default GOMAXPROCS

	// Timeout is the job's deadline as a Go duration string ("30s"); it
	// starts at admission, so queue time counts. Empty means the server
	// default; values above the server maximum are clamped to it.
	Timeout string `json:"timeout,omitempty"`
}

// errorBody is every non-2xx JSON response.
type errorBody struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP API. The job endpoints live under
// /api/v1; /healthz and /readyz carry liveness and drain state; the
// observability surface (/metrics, /metrics.json, /debug/pprof/) is the
// shared obs handler over the server's registry, so the kappa_jobs_* series
// and the pipeline metrics scrape from one place.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /api/v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.isDraining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	oh := obs.Handler(s.opts.Registry)
	mux.Handle("GET /metrics", oh)
	mux.Handle("GET /metrics.json", oh)
	mux.Handle("/debug/pprof/", oh)
	return mux
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// handleSubmit is admission: parse and validate the spec (400/413), resolve
// the graph, then ask the queue. A full queue is 429 with Retry-After; a
// draining server is 503 with Retry-After. Success is 202 with the job's
// initial status. A refused submit unmaps a shard_dir input before it
// answers.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, cfg, timeout, ok := s.admit(w, r)
	if !ok {
		return
	}
	g, mapped, err := s.resolveGraph(&spec, &cfg)
	if err == nil {
		err = cfg.CheckGraph(g)
	}
	if err != nil {
		release(mapped)
		s.metrics.reject("invalid")
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	j, err := s.submit(g, mapped, cfg, timeout)
	if err != nil {
		release(mapped)
	}
	switch {
	case errors.Is(err, ErrQueueFull):
		s.metrics.reject("queue_full")
		w.Header().Set("Retry-After", retryAfterSeconds(s.opts.RetryAfter))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
		return
	case errors.Is(err, ErrDraining):
		s.metrics.reject("draining")
		w.Header().Set("Retry-After", retryAfterSeconds(s.opts.RetryAfter))
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	w.Header().Set("Location", "/api/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, j.Status())
}

// admit decodes a submit request's spec and checks everything in it but the
// graph — the names, the numbers and the timeout — so that a typo costs a
// 400, not a graph load or generation. A rejection is answered here, 413 for
// a body over the limit and 400 for anything else, and reported as !ok.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (spec JobSpec, cfg core.Config, timeout time.Duration, ok bool) {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	status, err := http.StatusBadRequest, dec.Decode(&spec)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		status, err = http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooBig.Limit)
	case err != nil:
		err = fmt.Errorf("bad job spec: %v", err)
	default:
		cfg, timeout, err = s.jobConfig(&spec)
	}
	if err != nil {
		s.metrics.reject("invalid")
		writeJSON(w, status, errorBody{Error: err.Error()})
	}
	return spec, cfg, timeout, err == nil
}

// jobConfig turns a spec into the configuration the CLI would build from the
// equivalent flags — both go through core.ConfigFromNames, so the
// byte-identity contract between API jobs and one-shot runs holds by
// construction — and resolves the job's timeout.
func (s *Server) jobConfig(spec *JobSpec) (core.Config, time.Duration, error) {
	// An unset eps is the CLI's -eps default.
	cfg, err := core.ConfigFromNames(spec.Preset, spec.K, cmp.Or(spec.Eps, 0.03), spec.Seed, spec.PEs, spec.Workers, spec.Dist, spec.Coarsen)
	if err != nil {
		return core.Config{}, 0, err
	}
	timeout := s.opts.DefaultTimeout
	if spec.Timeout != "" {
		d, err := time.ParseDuration(spec.Timeout)
		if err != nil {
			return core.Config{}, 0, fmt.Errorf("bad timeout %q: %v", spec.Timeout, err)
		}
		if d < 0 {
			return core.Config{}, 0, fmt.Errorf("timeout must be >= 0, got %v", d)
		}
		timeout = d
	}
	if s.opts.MaxTimeout > 0 && (timeout == 0 || timeout > s.opts.MaxTimeout) {
		timeout = s.opts.MaxTimeout
	}
	return cfg, timeout, nil
}

// retryAfterSeconds renders a Retry-After header value (whole seconds,
// minimum 1 — zero tells clients to hammer).
func retryAfterSeconds(d time.Duration) string {
	secs := int(d.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// release unmaps a shard_dir input; it is a no-op for every other source.
func release(mapped *store.MappedGraph) {
	if mapped != nil {
		mapped.Close()
	}
}

// resolveGraph loads the job's input from exactly one of the four sources,
// the way the CLI would from the equivalent flags. A shard-store job adopts the manifest's shape into cfg, exactly like
// `kappa serve -shards`: the store's shard count and extraction strategy are
// facts of the input, not knobs of the request. Its graph is mapped from the
// store's CSR segment, and the mapping is returned for the job to close when
// it settles; on an error nothing stays mapped.
func (s *Server) resolveGraph(spec *JobSpec, cfg *core.Config) (*graph.Graph, *store.MappedGraph, error) {
	sources := 0
	for _, set := range []bool{spec.Gen != "", spec.GraphFile != "", spec.Graph != "", spec.ShardDir != ""} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, nil, fmt.Errorf("job spec must name exactly one graph source (gen, graph_file, graph, or shard_dir), got %d", sources)
	}
	switch {
	case spec.Gen != "":
		g, err := gen.FromSpec(spec.Gen)
		return g, nil, err
	case spec.Graph != "":
		g, err := graphio.ReadMETIS(strings.NewReader(spec.Graph))
		if err != nil {
			return nil, nil, fmt.Errorf("inline graph: %w", err)
		}
		return g, nil, nil
	case spec.ShardDir != "":
		path, err := s.confine("shard_dir", spec.ShardDir)
		if err != nil {
			return nil, nil, err
		}
		st, err := store.Open(path)
		if err != nil {
			return nil, nil, fmt.Errorf("shard_dir: %v", err)
		}
		man := st.Manifest()
		if err := cfg.AdoptStore(man.PEs, man.Strategy, man.CoordDims > 0); err != nil {
			return nil, nil, fmt.Errorf("shard_dir %q: %w", spec.ShardDir, err)
		}
		mapped, err := st.MapGraph()
		if err != nil {
			return nil, nil, fmt.Errorf("shard_dir: %v", err)
		}
		return mapped.G, mapped, nil
	default:
		path, err := s.confine("graph_file", spec.GraphFile)
		if err != nil {
			return nil, nil, err
		}
		g, err := graphio.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("graph_file: %v", err)
		}
		return g, nil, nil
	}
}

// confine resolves a client-supplied path under the served graph directory:
// the path must be relative and stay inside it after cleaning. With no
// configured directory any server-readable path is allowed.
func (s *Server) confine(field, path string) (string, error) {
	dir := s.opts.GraphDir
	if dir == "" {
		return path, nil
	}
	if filepath.IsAbs(path) || !filepath.IsLocal(path) {
		return "", fmt.Errorf("%s %q escapes the served graph directory", field, path)
	}
	return filepath.Join(dir, path), nil
}

// handleList returns every retained job's status, ordered by job number so
// the listing is deterministic regardless of map iteration.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	slices.SortFunc(jobs, func(a, b *Job) int { return cmp.Compare(jobNum(a.id), jobNum(b.id)) })
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []Status `json:"jobs"`
	}{Jobs: out})
}

// jobNum extracts the numeric part of a "jN" id; ids are server-generated so
// the parse cannot fail, but a zero fallback keeps the sort total anyway.
func jobNum(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "j"))
	return n
}

// handleStatus returns one job's status.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// handleResult serves a done job's partition in the CLI -out format.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	arts := j.artifacts()
	if arts == nil {
		writeJSON(w, http.StatusConflict, errorBody{
			Error: fmt.Sprintf("job is %s, result exists only for done jobs", j.Status().State)})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(arts.partition)
}

// handleReport serves a done job's run report; ?zero=1 returns the
// ZeroTimes rendering, byte-comparable across runs of the same input.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	arts := j.artifacts()
	if arts == nil {
		writeJSON(w, http.StatusConflict, errorBody{
			Error: fmt.Sprintf("job is %s, report exists only for done jobs", j.Status().State)})
		return
	}
	body := arts.report
	if r.URL.Query().Get("zero") == "1" {
		body = arts.reportZero
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// handleCancel requests cancellation: a queued job settles canceled
// immediately, a running one unwinds through its context. The response is
// the job's status at request time; poll for the terminal state.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	j.requestCancel()
	writeJSON(w, http.StatusOK, j.Status())
}
