package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/obs"
)

// soakPayload is the fake result of a job with the given seed: seeded
// bytes of a seeded size, so every fetch can be checked exactly.
func soakPayload(seed int64) []byte {
	n := 24<<10 + int(seed%7)*8<<10
	return bytes.Repeat([]byte{byte('a' + seed%26)}, n)
}

// soakBatch is a tiny corpus batch for one of a few recurring datasets:
// the first job of each ingests, every later one is a ledger no-op.
func soakBatch(seed int64) corpus.Batch {
	ds := uint64(0x100 + seed%5)
	b := corpus.Batch{Dataset: ds, Seed: 1}
	for i := 0; i < 6; i++ {
		v := float64(ds) + float64(i)
		b.Entries = append(b.Entries, corpus.Entry{
			Bench: fmt.Sprintf("Soak/d%d", ds), Suite: "Soak", Kind: corpus.KindInterval, Index: i,
			Vector: []float64{v, v * 0.5, 3 - v, v * v * 0.01},
		})
	}
	return b
}

// TestSoakBoundedRetention runs a few hundred fake-executor jobs, each
// ingesting into the live corpus, from several tenants while a query
// client scans the corpus. Retained result bytes stay within the
// budget, the job table and the /metrics body stay bounded, evicted
// IDs answer 410 on every job endpoint, and a ?wait=1 fetch that was
// waiting when its job was evicted still receives the job's bytes.
func TestSoakBoundedRetention(t *testing.T) {
	const (
		tenants       = 4
		jobsPerTenant = 75
		gatedSeed     = -1
	)
	dir := t.TempDir()
	seedCorpus(t, dir)
	m := obs.New()
	gate := make(chan struct{})
	var s *Server
	var err error
	s, err = New(Config{
		CacheDir: t.TempDir(), Workers: 2, Metrics: m, CorpusDir: dir, IngestJobs: true,
		execute: func(spec JobSpec) ([]byte, error) {
			if spec.Seed == gatedSeed {
				<-gate
				// Larger than the whole budget: evicted the moment it
				// finishes, while its waiter is still waiting.
				return bytes.Repeat([]byte{'g'}, resultBudget+1), nil
			}
			if _, err := s.corpus.IngestBatch(soakBatch(spec.Seed)); err != nil {
				return nil, err
			}
			return soakPayload(spec.Seed), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	// Signal the first result request to reach the server: the gated
	// job's waiter.
	waiting := make(chan struct{})
	var once sync.Once
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/result") {
			once.Do(func() { close(waiting) })
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	// Cleanups run last-registered first: open the gate before the
	// front door and the workers wait for the gated job.
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	c := &Client{Base: ts.URL, Tenant: "soak"}

	gated, err := c.Submit(JobSpec{Seed: gatedSeed})
	if err != nil {
		t.Fatal(err)
	}
	var gatedBody []byte
	var gatedErr error
	gatedDone := make(chan struct{})
	go func() {
		defer close(gatedDone)
		gatedBody, gatedErr = c.Result(gated.ID, true)
	}()
	<-waiting

	var metricsBefore int
	var wg sync.WaitGroup
	var mu sync.Mutex
	var ids []string
	stopQueries := make(chan struct{})
	queriesDone := make(chan struct{})
	go func() {
		defer close(queriesDone)
		for i := 0; ; i++ {
			select {
			case <-stopQueries:
				return
			default:
			}
			q := corpus.QueryRequest{Op: "nearest", Vector: []float64{float64(i % 30), 1, 2, 3}, K: 3}
			if i%5 == 4 {
				q = corpus.QueryRequest{Op: "uniqueness", Bench: "SuiteA/b0"}
			}
			if _, err := c.CorpusQuery(q); err != nil {
				t.Errorf("corpus query during the soak: %v", err)
				return
			}
		}
	}()
	for tn := 0; tn < tenants; tn++ {
		wg.Add(1)
		go func(tn int) {
			defer wg.Done()
			tc := &Client{Base: ts.URL, Tenant: fmt.Sprintf("t%d", tn)}
			for i := 0; i < jobsPerTenant; i++ {
				seed := int64(tn*jobsPerTenant + i)
				st, err := tc.Submit(JobSpec{Seed: seed})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				body, err := tc.Result(st.ID, true)
				if err != nil {
					t.Errorf("job %s: %v", st.ID, err)
					return
				}
				if !bytes.Equal(body, soakPayload(seed)) {
					t.Errorf("job %s: %d result bytes, not its payload", st.ID, len(body))
					return
				}
				mu.Lock()
				ids = append(ids, st.ID)
				if len(ids) == tenants*jobsPerTenant/3 {
					body, err := c.Metrics()
					if err != nil {
						t.Error(err)
					}
					metricsBefore = len(body)
				}
				mu.Unlock()
			}
		}(tn)
	}
	wg.Wait()
	close(stopQueries)
	<-queriesDone
	if t.Failed() {
		t.FailNow()
	}

	body, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if len(body) > metricsBefore+1024 {
		t.Fatalf("/metrics grew from %d to %d bytes over the last two thirds of the soak", metricsBefore, len(body))
	}
	var rep obs.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	cnt := rep.Counters
	s.mu.Lock()
	tableLen, retained := len(s.jobs), s.retained
	held := int64(0)
	for _, j := range s.jobs {
		held += int64(len(j.payload()))
	}
	s.mu.Unlock()
	total := int64(tenants*jobsPerTenant + 1)
	if held > resultBudget || retained > resultBudget || cnt["serve.result_bytes"] != held {
		t.Fatalf("retained results: %d bytes held, %d charged, serve.result_bytes=%d; budget %d",
			held, retained, cnt["serve.result_bytes"], resultBudget)
	}
	if evicted := cnt["serve.jobs_evicted"]; evicted == 0 || int64(tableLen)+evicted != total {
		t.Fatalf("job table holds %d jobs with %d evicted, of %d submitted", tableLen, evicted, total)
	}
	// Every retained result is at least 24 KiB; the gated job is still
	// running and not charged yet.
	if admits := resultBudget / (24 << 10); tableLen > admits+1 {
		t.Fatalf("job table holds %d jobs, more than the budget admits (%d)", tableLen, admits)
	}
	if cnt["corpus.ingested"] != 5*6 || cnt["corpus.ingest_skipped"] != total-1-5 {
		t.Fatalf("corpus ingests: %d records ingested, %d skipped", cnt["corpus.ingested"], cnt["corpus.ingest_skipped"])
	}

	// The first job is long gone: every job endpoint says so.
	first := ids[0]
	wantGone := func(what string, err error) {
		t.Helper()
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusGone {
			t.Fatalf("%s of evicted job: %v, want 410", what, err)
		}
	}
	_, err = c.Status(first)
	wantGone("status", err)
	_, err = c.Result(first, true)
	wantGone("result", err)
	_, err = c.Events(first, nil)
	wantGone("events", err)
	_, err = c.Cancel(first)
	wantGone("cancel", err)
	for _, id := range []string{"j99999999", "j1", "x00000001"} {
		var se *StatusError
		if _, err := c.Status(id); !errors.As(err, &se) || se.Code != http.StatusNotFound {
			t.Fatalf("status of never-issued %s: %v, want 404", id, err)
		}
	}

	// Release the gated job: it is evicted as it finishes, and its
	// waiter still gets every byte.
	release()
	<-gatedDone
	if gatedErr != nil || len(gatedBody) != resultBudget+1 {
		t.Fatalf("waiter on the evicted job: %d bytes, %v", len(gatedBody), gatedErr)
	}
	_, err = c.Status(gated.ID)
	wantGone("status of the over-budget job", err)
}
