package obs

import (
	"context"
	"net/http"
	"time"
)

// HTTP exposure: Handler serves a registry over two conventional
// endpoints — Prometheus text format at /metrics (build identity
// included, as the postopc_build_info gauge) and a trivial liveness probe
// at /healthz. NewServer wraps the handler in an http.Server hardened for
// long-lived embedding (header-read timeout against slowloris peers,
// graceful Shutdown) — the listener the future postopc-served daemon will
// mount. CLIs mount it with -metrics :port; the pprof endpoints come from
// net/http/pprof on the CLI side.

// Handler returns an http.Handler serving reg at /metrics (Prometheus
// text format) and /healthz (liveness).
func Handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := WritePrometheus(w, reg.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	return mux
}

// NewServer returns an http.Server serving Handler(reg) on addr, with a
// header-read timeout so a stalled peer cannot pin a connection
// goroutine forever. Callers own the lifecycle: ListenAndServe to start,
// Shutdown (see ShutdownServer) to stop draining in-flight scrapes.
func NewServer(addr string, reg *Registry) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           Handler(reg),
		ReadHeaderTimeout: 5 * time.Second,
	}
}

// ShutdownServer gracefully stops a server from NewServer, waiting up to
// timeout for in-flight requests before closing hard. Nil-safe.
func ShutdownServer(srv *http.Server, timeout time.Duration) {
	if srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
	}
}
