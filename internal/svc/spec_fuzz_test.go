package svc

import (
	"bytes"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzJobSpec drives a submit body of arbitrary bytes through admission —
// the JSON decoder with its body limit and unknown-field check,
// core.ConfigFromNames and the timeout parse — and stops before the graph is
// resolved, so no input generates or reads one. No input may panic; a
// rejection must be answered with a 4xx and an admitted spec must carry a
// configuration that validates and a timeout within the server's bounds.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"gen":"rgg:10","k":4,"seed":7}`,
		`{"gen":"grid:4x4","k":2,"preset":"strong","eps":0.05,"pes":3,"dist":"sfc","coarsen":"distributed","workers":1048576,"timeout":"30s"}`,
		`{"graph":"2 1\n2\n1\n","k":2,"timeout":"-1s"}`,
		`{"graph_file":"g.graph","k":0}`,
		`{"shard_dir":"s","k":2,"preset":"turbo"}`,
		`{"gen":"rgg:8","k":2,"timeout":"9999999999h"}`,
		`{"gen":`,
		`{"k":2,"bogus":1}`,
		`[1,2,3]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	s := New(Options{DefaultTimeout: time.Minute, MaxTimeout: time.Hour, MaxBody: 512})
	defer s.Close()
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest("POST", "/api/v1/jobs", bytes.NewReader(body))
		rr := httptest.NewRecorder()
		_, cfg, timeout, ok := s.admit(rr, req)
		if !ok {
			if rr.Code < 400 || rr.Code >= 500 {
				t.Fatalf("rejected with %d: %s", rr.Code, rr.Body.String())
			}
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("admitted an invalid configuration: %v", err)
		}
		if timeout <= 0 || timeout > time.Hour {
			t.Fatalf("admitted a timeout of %v outside (0, 1h]", timeout)
		}
	})
}
