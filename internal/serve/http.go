package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/bench"
)

// maxSpecBytes bounds POST /jobs bodies: a handful of scalar knobs plus
// an optional inline workload-model payload (itself capped at
// bench.MaxModelBytes by the spec validator).
const maxSpecBytes = bench.MaxModelBytes + 64<<10

// Handler returns the service's front-door HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.timed("serve.http.post_jobs", s.handleSubmit))
	mux.HandleFunc("GET /jobs/{id}", s.timed("serve.http.get_job", s.handleStatus))
	mux.HandleFunc("GET /jobs/{id}/result", s.timed("serve.http.get_result", s.handleResult))
	mux.HandleFunc("POST /jobs/{id}/cancel", s.timed("serve.http.cancel_job", s.handleCancel))
	// The events stream lives as long as the job does; timing it would
	// record job durations into an endpoint-latency histogram.
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /corpus/query", s.timed("serve.http.corpus_query", s.handleCorpusQuery))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("GET /metrics", s.m.MetricsHandler())
	return mux
}

// timed wraps a handler with its endpoint's latency histogram.
func (s *Server) timed(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h(w, r)
		s.m.ObserveSince(name, t0)
	}
}

// tenant extracts the submitting tenant; absent headers share one
// anonymous bucket rather than each minting their own.
func tenant(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "anonymous"
}

// writeJSON writes v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// handleSubmit admits one job: 202 with its Status, 400 on a bad spec,
// 429 (+ Retry-After, in seconds) when the queue or the tenant's token
// bucket rejects it.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		http.Error(w, "read: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(body) > maxSpecBytes {
		http.Error(w, "job spec too large", http.StatusRequestEntityTooLarge)
		return
	}
	var spec JobSpec
	if len(body) > 0 {
		if err := json.Unmarshal(body, &spec); err != nil {
			http.Error(w, "job spec: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	j, err := s.submit(tenant(r), spec)
	if err != nil {
		var se *submitError
		if errors.As(err, &se) {
			if se.retryAfter > 0 {
				secs := int(se.retryAfter / time.Second)
				if secs < 1 {
					secs = 1
				}
				w.Header().Set("Retry-After", fmt.Sprint(secs))
			}
			http.Error(w, se.Error(), se.status)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	st, _ := j.status()
	writeJSON(w, http.StatusAccepted, st)
}

// jobFor resolves the request's job ID, answering 404 (never issued) or
// 410 (evicted under the retention budget) itself when there is none.
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) (*job, bool) {
	j, code := s.lookup(r.PathValue("id"))
	switch code {
	case http.StatusOK:
		return j, true
	case http.StatusGone:
		http.Error(w, "job is gone (evicted under the result retention budget)", code)
	default:
		http.Error(w, "no such job", code)
	}
	return nil, false
}

// handleStatus serves a job's Status snapshot.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	st, _ := j.status()
	writeJSON(w, http.StatusOK, st)
}

// handleResult serves a finished job's exported run JSON. ?wait=1
// blocks (bounded by the request context) until the job is terminal.
// A failed job is 500 with its error, a cancelled one 409, an
// unfinished one without wait 202 with the Status snapshot.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	st, ch := j.status()
	if r.URL.Query().Get("wait") != "" {
		for !st.State.Terminal() {
			select {
			case <-r.Context().Done():
				return
			case <-ch:
			}
			st, ch = j.status()
		}
	}
	switch st.State {
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.Write(j.payload())
	case StateFailed:
		http.Error(w, st.Error, http.StatusInternalServerError)
	case StateCancelled:
		http.Error(w, "job was cancelled", http.StatusConflict)
	default:
		writeJSON(w, http.StatusAccepted, st)
	}
}

// handleCancel cancels a still-queued job; a running or finished one is
// 409 (the pipeline has no safe preemption points).
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	if !j.cancelQueued() {
		st, _ := j.status()
		http.Error(w, fmt.Sprintf("job is %s; only queued jobs can be cancelled", st.State), http.StatusConflict)
		return
	}
	s.jobsCancel.Inc()
	s.retire(j)
	st, _ := j.status()
	writeJSON(w, http.StatusOK, st)
}

// handleEvents streams the job's Status as server-sent events: the
// current snapshot immediately, then one event per transition, closing
// after the terminal state (or when the client goes away).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	for {
		st, ch := j.status()
		data, _ := json.Marshal(st)
		fmt.Fprintf(w, "data: %s\n\n", data)
		flusher.Flush()
		if st.State.Terminal() {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-ch:
		}
	}
}
