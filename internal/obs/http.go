package obs

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// MetricsHandler returns an http.Handler that serves the collector's
// live Snapshot as indented JSON — the /metrics endpoint of both the
// -metrics-addr listener (DebugHandler) and the characterization
// service's front-door mux. Nil receiver serves 503 (observability disabled).
func (m *Metrics) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if m == nil {
			http.Error(w, "observability disabled", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(m.Snapshot())
	})
}

// DebugHandler returns the -metrics-addr endpoint's handler:
//
//	/metrics      the live run report (Snapshot) as JSON
//	/debug/vars   the process's expvar variables
//	/debug/pprof  the standard pprof index (profile, heap, trace, ...)
func (m *Metrics) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", m.MetricsHandler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve is the one listener lifecycle every HTTP endpoint in the repo
// shares: it binds addr (host:port, port 0 for ephemeral), reports the
// bound address through ready (which may be nil), and serves h until ctx
// is cancelled or the listener fails. On cancellation the listener
// closes at once, but requests already in flight — a shard computation
// mid-response, a metrics scrape — run to completion, bounded by drain,
// before Serve returns. A clean context-driven shutdown returns nil; a
// bind or listener failure, or a drain that overruns its bound, returns
// the error.
func Serve(ctx context.Context, addr string, h http.Handler, drain time.Duration, ready func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready(ln.Addr())
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		dctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		err := srv.Shutdown(dctx)
		if serr := <-done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		return err
	case err := <-done:
		return err
	}
}
