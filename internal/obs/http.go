package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler returns the observability endpoint for r:
//
//	/metrics       Prometheus text exposition format
//	/metrics.json  JSON snapshot of the same registry
//	/debug/pprof/  the standard net/http/pprof handlers (CPU profiles carry
//	               the pipeline's stage/level labels, so samples attribute
//	               to coarsen/init/refine)
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		r.writeJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// NewServer returns an http.Server for h hardened against slow or hostile
// clients: a header that trickles in (slowloris), a request body that never
// finishes, or an idle keep-alive connection all get bounded instead of
// pinning a goroutine and file descriptor forever. WriteTimeout is left
// unset deliberately — the endpoints this server fronts stream long
// responses (30-second pprof CPU profiles, job-report downloads), and a
// write deadline would truncate exactly the responses worth waiting for.
// Both the observability endpoint and the kappad API server are built
// through this one constructor, so the hygiene cannot drift between them.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

// Serve starts the observability endpoint on addr (host:port; port 0 picks a
// free port) and returns the running server plus the bound address. The
// server runs until Close/Shutdown; serving errors after Close are
// swallowed, matching the endpoint's best-effort role.
func Serve(addr string, r *Registry) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := NewServer(Handler(r))
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}
