package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fcache"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
)

const (
	// poolSize distinct job specs recur in the tenant's stream, so a run
	// submits each one computed once and resumed thereafter, and the
	// corpus grows by at most poolSize ingests.
	poolSize = 6
	// preloadRuns quick runs fill the corpus before the load (about 11k
	// rows).
	preloadRuns = 8
	// hotBytes is the service's hot-tier budget: more than a run's
	// artifacts, so the tier never evicts.
	hotBytes = 64 << 20
	// queryK neighbours per nearest query.
	queryK = 5
	// minJobs and minNearest are the fewest jobs and nearest queries a
	// load phase may end with, so their 90th and 95th percentiles have
	// ten samples beyond them.
	minJobs    = 100
	minNearest = 200
	// overtime bounds how long a load phase may run past its deadline to
	// reach those minimums.
	overtime = time.Minute
)

// more reports whether a closed loop that has n samples and needs at least
// least should send another request.
func more(deadline time.Time, n, least int) bool {
	now := time.Now()
	return now.Before(deadline) || (n < least && now.Before(deadline.Add(overtime)))
}

// quickConfig is the service's "quick" preset (as cmd/phasechar -quick
// builds it) at one pipeline seed.
func quickConfig(seed int64, workers int) core.Config {
	cfg := core.TestConfig()
	cfg.IntervalLength = 5000
	cfg.SamplesPerBenchmark = 20
	cfg.MaxIntervalsPerBenchmark = 40
	cfg.NumClusters = 150
	cfg.NumProminent = 50
	cfg.Seed = seed
	cfg.Workers = workers
	return cfg
}

// derivedSeed maps the workload seed to a positive pipeline seed per
// purpose and index, so pool, preload and ledger runs never share a
// dataset.
func derivedSeed(seed int64, salt, i uint64) int64 {
	rng := trace.NewRNG(uint64(seed)*0x9e3779b97f4a7c15 ^ salt*0xbf58476d1ce4e5b9 ^ i)
	return 1 + int64(rng.Uint64()%1_000_000_000)
}

const (
	saltPool = iota + 1
	saltPreload
	saltLedger
	saltJobs
	saltQueries
	saltVariant
	saltReplay
	saltVectors
)

// service is one set-up of the service-mixed workload: a loopback
// serve.Server over a fresh cache (every quick-preset interval vector
// pre-warmed) and a fresh corpus preloaded from a few quick runs.
type service struct {
	reg       *bench.Registry
	cacheDir  string
	corpusDir string
	m         *obs.Metrics
	client    *serve.Client
	stop      context.CancelFunc
	served    chan error
	pool      []serve.JobSpec
	vectors   [][]float64 // query points drawn from the preloaded rows
	benches   []string
}

func setupService(r *run, name string) (*service, error) {
	root, err := r.dir(name)
	if err != nil {
		return nil, err
	}
	reg, err := bench.StandardRegistry()
	if err != nil {
		return nil, err
	}
	s := &service{reg: reg, cacheDir: filepath.Join(root, "cache"), corpusDir: filepath.Join(root, "corpus")}
	for _, b := range reg.All() {
		s.benches = append(s.benches, b.ID())
	}

	// Every interval of every benchmark at the quick scale, once: vectors
	// do not depend on the pipeline seed, so this warms every job.
	all := quickConfig(1, r.workers)
	all.SampleByBenchmark = false
	all.CacheDir = s.cacheDir
	all.Metrics = obs.New() // a collector keeps the dataset memo out
	if _, err := core.Characterize(core.SampleRefs(reg, all), all); err != nil {
		return nil, err
	}
	corp, err := corpus.Open(s.corpusDir, nil)
	if err != nil {
		return nil, err
	}
	rng := trace.NewRNG(uint64(derivedSeed(r.seed, saltVectors, 0)))
	for i := 0; i < preloadRuns; i++ {
		cfg := quickConfig(derivedSeed(r.seed, saltPreload, uint64(i)), r.workers)
		cfg.CacheDir = s.cacheDir
		cfg.Metrics = obs.New()
		res, err := core.Run(reg, cfg, nil)
		if err != nil {
			return nil, err
		}
		if _, err := corp.IngestResult(res); err != nil {
			return nil, err
		}
		for k := 0; k < 32; k++ {
			s.vectors = append(s.vectors, append([]float64(nil), res.Dataset.Raw.Row(rng.Intn(res.Dataset.Raw.Rows))...))
		}
	}
	for i := 0; i < poolSize; i++ {
		s.pool = append(s.pool, serve.JobSpec{Preset: "quick", Seed: derivedSeed(r.seed, saltPool, uint64(i)), Workers: 1})
	}

	s.m = obs.New()
	srv, err := serve.New(serve.Config{
		CacheDir: s.cacheDir, Workers: 1, HotBytes: hotBytes, Metrics: s.m,
		CorpusDir: s.corpusDir, IngestJobs: true,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.stop, s.served = cancel, make(chan error, 1)
	ready := make(chan net.Addr, 1)
	go func() { s.served <- srv.Serve(ctx, "127.0.0.1:0", func(a net.Addr) { ready <- a }) }()
	select {
	case a := <-ready:
		s.client = &serve.Client{Base: "http://" + a.String(), Tenant: "bench",
			HTTP: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
	case err := <-s.served:
		cancel()
		return nil, fmt.Errorf("starting the service: %w", err)
	}
	return s, nil
}

// close stops the server, waits for it and its job worker to exit, and
// drops its hot tier.
func (s *service) close() error {
	s.stop()
	err := <-s.served
	fcache.EnableHotTier(s.cacheDir, 0)
	s.client.HTTP.CloseIdleConnections()
	return err
}

// load is what one load phase observed.
type load struct {
	attempted, failed int
	failures          []string

	all              []float64 // ms, submit to result bytes, every job
	jobs, tracedJobs []float64 // ms, untraced jobs; traced ones to their status marks
	submit           []float64 // ms, Client.Submit round trip
	queueWait        []float64 // ms, Submitted -> Started
	runComputed      []float64 // ms, Started -> Finished, first occurrence of a spec
	runResumed       []float64 // ms, Started -> Finished, repeats
	result           []float64 // ms, Finished -> result bytes received
	nearest, uniq    []float64 // ms, client side

	bodies  map[int][]byte // pool index -> result body
	jobsOf  map[int]int    // pool index -> jobs completed
	metrics []byte         // /metrics body at the end of the load
	report  obs.Report
}

func (l *load) fail(format string, args ...any) {
	l.failed++
	l.failures = append(l.failures, fmt.Sprintf(format, args...))
}

// drive runs the tenant and query clients as two closed loops for d (and
// until minJobs jobs and minNearest nearest queries completed). With
// traceJobs about every other job also fetches its status marks.
func (s *service) drive(seed int64, d time.Duration, traceJobs bool) (*load, error) {
	jobs := &load{bodies: map[int][]byte{}, jobsOf: map[int]int{}}
	queries := &load{}
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		s.tenant(jobs, seed, start.Add(d), traceJobs)
	}()
	go func() {
		defer wg.Done()
		s.query(queries, seed, start.Add(d))
	}()
	wg.Wait()
	jobs.attempted += queries.attempted
	jobs.failed += queries.failed
	jobs.failures = append(jobs.failures, queries.failures...)
	jobs.nearest, jobs.uniq = queries.nearest, queries.uniq

	body, err := s.client.Metrics()
	if err != nil {
		return nil, err
	}
	jobs.metrics = body
	if err := json.Unmarshal(body, &jobs.report); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	return jobs, nil
}

// tenant submits seeded picks from the spec pool, waiting for each result.
func (s *service) tenant(l *load, seed int64, deadline time.Time, traceJobs bool) {
	rng := trace.NewRNG(uint64(derivedSeed(seed, saltJobs, 0)))
	// Traced jobs are picked by a coin of their own: alternating would
	// phase-lock with the query client's uniqueness period.
	coin := trace.NewRNG(uint64(derivedSeed(seed, saltJobs, 1)))
	for more(deadline, len(l.all), minJobs) {
		k := rng.Intn(len(s.pool))
		first := l.jobsOf[k] == 0
		l.attempted++
		t0 := time.Now()
		st, err := s.client.Submit(s.pool[k])
		if err != nil {
			l.fail("submit: %v", err) // a 429 refusal lands here too
			continue
		}
		t1 := time.Now()
		body, err := s.client.Result(st.ID, true)
		t2 := time.Now()
		if err != nil {
			l.fail("job %s: %v", st.ID, err)
			continue
		}
		if prev, ok := l.bodies[k]; !ok {
			l.bodies[k] = body
		} else if !bytes.Equal(prev, body) {
			l.fail("job %s: result differs from an earlier job of the same spec", st.ID)
			continue
		}
		l.jobsOf[k]++
		l.all = append(l.all, ms(t2.Sub(t0)))
		if !traceJobs || coin.Intn(2) == 0 {
			l.jobs = append(l.jobs, ms(t2.Sub(t0)))
			continue
		}
		marks, err := s.client.Status(st.ID)
		if err != nil {
			l.fail("job %s status: %v", st.ID, err)
			continue
		}
		l.tracedJobs = append(l.tracedJobs, ms(time.Since(t0)))
		l.submit = append(l.submit, ms(t1.Sub(t0)))
		l.queueWait = append(l.queueWait, ms(marks.Started.Sub(marks.Submitted)))
		if first {
			l.runComputed = append(l.runComputed, ms(marks.Finished.Sub(marks.Started)))
		} else {
			l.runResumed = append(l.runResumed, ms(marks.Finished.Sub(marks.Started)))
		}
		l.result = append(l.result, ms(t2.Sub(marks.Finished)))
	}
}

// nextQuery is the i-th query of a seeded stream: nearest to a jittered
// preloaded row, and every tenth a benchmark's uniqueness.
func (s *service) nextQuery(rng *trace.RNG, i int) corpus.QueryRequest {
	if i%10 == 9 {
		return corpus.QueryRequest{Op: "uniqueness", Bench: s.benches[rng.Intn(len(s.benches))]}
	}
	v := append([]float64(nil), s.vectors[rng.Intn(len(s.vectors))]...)
	for j := range v {
		v[j] *= 1 + 0.1*(rng.Float64()-0.5)
	}
	return corpus.QueryRequest{Op: "nearest", Vector: v, K: queryK}
}

// checkAnswer validates one corpus answer: K neighbours in ascending
// distance, or a uniqueness share in [0, 1] for the benchmark asked.
func checkAnswer(q corpus.QueryRequest, resp *corpus.QueryResponse) error {
	if resp.Op != q.Op {
		return fmt.Errorf("answer op %q to a %q query", resp.Op, q.Op)
	}
	if q.Op == "uniqueness" {
		u := resp.Uniqueness
		if u == nil || u.Bench != q.Bench || u.Rows < 1 || !(u.Uniqueness >= 0 && u.Uniqueness <= 1) {
			return fmt.Errorf("malformed uniqueness answer for %s: %+v", q.Bench, u)
		}
		return nil
	}
	if len(resp.Neighbors) != q.K {
		return fmt.Errorf("%d neighbours, want %d", len(resp.Neighbors), q.K)
	}
	for i, n := range resp.Neighbors {
		if math.IsNaN(n.Distance) || (i > 0 && n.Distance < resp.Neighbors[i-1].Distance) {
			return fmt.Errorf("neighbour distances not ascending: %v", resp.Neighbors)
		}
	}
	return nil
}

// query asks seeded corpus questions over HTTP.
func (s *service) query(l *load, seed int64, deadline time.Time) {
	rng := trace.NewRNG(uint64(derivedSeed(seed, saltQueries, 0)))
	for i := 0; more(deadline, len(l.nearest), minNearest); i++ {
		q := s.nextQuery(rng, i)
		l.attempted++
		t0 := time.Now()
		body, err := s.client.CorpusQuery(q)
		lat := ms(time.Since(t0))
		if err != nil {
			l.fail("%s query: %v", q.Op, err)
			continue
		}
		var resp corpus.QueryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			l.fail("%s query: %v", q.Op, err)
			continue
		}
		if err := checkAnswer(q, &resp); err != nil {
			l.fail("%s query: %v", q.Op, err)
			continue
		}
		if q.Op == "uniqueness" {
			l.uniq = append(l.uniq, lat)
		} else {
			l.nearest = append(l.nearest, lat)
		}
	}
}

// verify reruns every spec the load submitted in-process, with core.Run
// over the same cache, and counts each job whose result differs from that
// export as failed. It returns the first spec's Result for the ledger.
func (s *service) verify(l *load) (*core.Result, error) {
	var first *core.Result
	for k, spec := range s.pool {
		body, ok := l.bodies[k]
		if !ok {
			continue
		}
		cfg := quickConfig(spec.Seed, spec.Workers)
		cfg.CacheDir = s.cacheDir
		cfg.Metrics = obs.New()
		res, err := core.Run(s.reg, cfg, nil)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			return nil, err
		}
		if !bytes.Equal(buf.Bytes(), body) {
			l.failed += l.jobsOf[k]
			l.failures = append(l.failures, fmt.Sprintf("spec %d: %d job results differ from the in-process export", k, l.jobsOf[k]))
		}
		if first == nil {
			first = res
		}
	}
	if first == nil {
		return nil, errors.New("no job completed")
	}
	return first, nil
}

// guard checks, from the service's own counters, that the load took the
// paths it was built for: the first job of each spec ingested into the
// corpus and every repeat found its dataset already ingested.
func (l *load) guard(r *run) {
	c := l.report.Counters
	if repeats := int64(len(l.all) - len(l.jobsOf)); c["corpus.ingest_skipped"] != repeats {
		r.guardFail("service load: corpus.ingest_skipped=%d, want %d repeat jobs", c["corpus.ingest_skipped"], repeats)
	}
	if len(l.jobsOf) > 0 && c["corpus.ingested"] == 0 {
		r.guardFail("service load: no first job ingested into the corpus")
	}
}

func (l *load) summarize(r *run) {
	r.attempted += l.attempted
	r.failed += l.failed
	for i, f := range l.failures {
		if i == 5 {
			logf("FAIL: ... %d more", len(l.failures)-5)
			break
		}
		logf("FAIL: %s", f)
	}
	logf("jobs: %d (%d traced); nearest %d, uniqueness %d queries", len(l.all), len(l.tracedJobs), len(l.nearest), len(l.uniq))
	for _, s := range []struct {
		name string
		xs   []float64
	}{{"job", l.all}, {"nearest", l.nearest}, {"uniqueness", l.uniq}} {
		line := fmt.Sprintf("  %-10s mean %.3f ms, p50 %.3f ms (n=%d)", s.name, mean(s.xs), median(s.xs), len(s.xs))
		if pct, v, ok := highestTail(s.xs); ok {
			line += fmt.Sprintf(", p%.1f %.3f ms", pct, v)
		}
		logf("%s", line)
	}
}

func runService(r *run) error {
	// Set up several times, keeping the last; each set-up starts from
	// fresh cache and corpus directories, so every run's hot tier and
	// corpus start out the same.
	setups := 3
	if r.traced {
		setups = 1
	}
	var s *service
	for i := 0; i < setups; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var err error
		if s, err = setupService(r, fmt.Sprintf("service-%d", i)); err != nil {
			return err
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
	}
	l, err := s.drive(r.seed, r.seconds, r.traced)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	res, err := s.verify(l)
	if err != nil {
		return err
	}
	l.summarize(r)
	l.guard(r)
	r.ops = l.jobs
	if !r.traced {
		return nil
	}
	r.layer("harness.trace_overhead_frac", "frac", median(l.tracedJobs)/median(l.jobs)-1)
	c := l.report.Counters
	r.layer("fcache.hit_frac", "frac", frac(c["fcache.hits"], c["fcache.misses"]))
	if err := characterizationLedger(r, res); err != nil {
		return err
	}
	if err := analysisLedger(r, res); err != nil {
		return err
	}
	return s.ledger(r, l)
}

// serviceLedger is the service and corpus part of a methodology
// workload's ledger: a short traced service-mixed phase of its own, run
// for ledgerLoad (and to the minimum job and query counts).
func serviceLedger(r *run) error {
	const ledgerLoad = 3 * time.Second
	s, err := setupService(r, "service-ledger")
	if err != nil {
		return err
	}
	l, err := s.drive(r.seed, ledgerLoad, true)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if _, err := s.verify(l); err != nil {
		return err
	}
	l.summarize(r)
	l.guard(r)
	return s.ledger(r, l)
}

// ledger reports the serve, obs and corpus layers of one traced load:
// phase marks of the traced jobs, the program's own counters and
// histograms, and in-process corpus calls on a copy of the end-of-load
// corpus.
func (s *service) ledger(r *run, l *load) error {
	c := l.report.Counters
	job90, _ := quantile(l.all, 0.9)
	r.layer("serve.job_p50_ms", "ms", median(l.all))
	r.layer("serve.job_p90_ms", "ms", job90)
	r.layer("serve.submit_ms", "ms", median(l.submit))
	r.layer("serve.queue_wait_ms", "ms", median(l.queueWait))
	r.layer("serve.job_run_computed_ms", "ms", median(l.runComputed))
	r.layer("serve.job_run_resumed_ms", "ms", median(l.runResumed))
	r.layer("serve.result_ms", "ms", median(l.result))
	nearest50 := median(l.nearest)
	nearest95, _ := quantile(l.nearest, 0.95)
	r.layer("serve.nearest_p50_ms", "ms", nearest50)
	r.layer("serve.nearest_p95_ms", "ms", nearest95)
	r.layer("serve.uniqueness_p50_ms", "ms", median(l.uniq))
	r.layer("serve.http_overhead_ms", "ms", nearest50-1e3*l.report.Histograms["corpus.query"].P50Seconds)
	r.layer("serve.metrics_bytes", "bytes", float64(len(l.metrics)))
	r.layer("obs.spans_retained", "count", float64(len(l.report.Spans)))
	r.layer("fcache.hot_hit_frac", "frac", frac(c["fcache.hot_hits"], c["fcache.hot_misses"]))
	r.layer("core.resumed_stage_frac", "frac", frac(c["engine.stages_resumed"], c["engine.stages_computed"]))
	return s.corpusLedger(r)
}

// corpusLedger times Corpus.Query and IngestBatch in-process on a copy of
// the end-of-load corpus.
func (s *service) corpusLedger(r *run) error {
	dir, err := r.dir("corpus-copy")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := copyDir(s.corpusDir, dir); err != nil {
		return err
	}
	m := obs.New()
	corp, err := corpus.Open(dir, m)
	if err != nil {
		return err
	}
	rng := trace.NewRNG(uint64(derivedSeed(r.seed, saltQueries, 1)))
	ask := func(q corpus.QueryRequest) (float64, error) {
		t0 := time.Now()
		resp, err := corp.Query(q)
		lat := ms(time.Since(t0))
		if err != nil {
			return 0, err
		}
		return lat, checkAnswer(q, resp)
	}
	var nearest, uniq []float64
	for i := 0; len(nearest) < minNearest || len(uniq) < 20; i++ {
		q := s.nextQuery(rng, i)
		lat, err := ask(q)
		if err != nil {
			return fmt.Errorf("corpus replay: %w", err)
		}
		if q.Op == "uniqueness" {
			uniq = append(uniq, lat)
		} else {
			nearest = append(nearest, lat)
		}
	}
	cnt := m.Snapshot().Counters
	r.layer("corpus.nearest_ms", "ms", median(nearest))
	r.layer("corpus.uniqueness_ms", "ms", median(uniq))
	r.layer("corpus.scan_rows_per_query", "count", float64(cnt["corpus.scan_rows"])/float64(cnt["corpus.queries"]))
	st, err := corp.Stats()
	if err != nil {
		return err
	}
	r.layer("corpus.rows", "count", float64(st.Records))

	// Fresh datasets, so each ingest adds rows; the query after it pays
	// for whatever the ingest left to rebuild.
	var ingest, after []float64
	for i := 0; i < 3; i++ {
		cfg := quickConfig(derivedSeed(r.seed, saltLedger, uint64(i)), r.workers)
		cfg.CacheDir = s.cacheDir
		cfg.Metrics = obs.New()
		res, err := core.Run(s.reg, cfg, nil)
		if err != nil {
			return err
		}
		b, err := corpus.FromResult(res)
		if err != nil {
			return err
		}
		t0 := time.Now()
		info, err := corp.IngestBatch(b)
		if err != nil {
			return err
		}
		if info.Skipped {
			return errors.New("corpus replay: a fresh dataset was skipped as already ingested")
		}
		ingest = append(ingest, ms(time.Since(t0)))
		lat, err := ask(s.nextQuery(rng, 0))
		if err != nil {
			return fmt.Errorf("corpus replay: %w", err)
		}
		after = append(after, lat)
	}
	r.layer("corpus.ingest_ms", "ms", median(ingest))
	r.layer("corpus.first_query_after_ingest_ms", "ms", median(after))
	return nil
}

// copyDir copies the regular files of src into dst.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
