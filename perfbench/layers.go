package main

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fcache"
	"repro/internal/isa"
	"repro/internal/mica"
	"repro/internal/mica/ilp"
	"repro/internal/mica/ppm"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/stats"
	"repro/internal/trace"
)

// targets names, for each per-layer metric, the end-to-end metric and the
// workload it should move. Traced runs print it beside each value.
var targets = map[string]string{
	"trace.ns_per_instr":                  "op_mean_ms · methodology-cold",
	"mica.ns_per_instr":                   "op_mean_ms · methodology-cold",
	"mica.ppm.ns_per_instr":               "op_mean_ms · methodology-cold",
	"mica.ilp.ns_per_instr":               "op_mean_ms · methodology-cold",
	"mica.scalar.ns_per_instr":            "op_mean_ms · methodology-cold",
	"core.characterize_ns_per_instr":      "op_mean_ms · methodology-cold",
	"core.characterize_unattributed_frac": "op_mean_ms · methodology-cold",
	"par.busy_frac":                       "op_mean_ms · methodology-cold",
	"fcache.put_us":                       "op_mean_ms · methodology-cold",
	"fcache.get_us":                       "op_mean_ms · methodology-warm",
	"fcache.hit_frac":                     "op_mean_ms · methodology-cold / methodology-warm",
	"fcache.hot_hit_frac":                 "op_mean_ms · service-mixed",
	"core.resumed_stage_frac":             "op_mean_ms · service-mixed",
	"stats.pca_ms":                        "op_mean_ms · methodology-warm",
	"stats.scores_ms":                     "op_mean_ms · methodology-warm",
	"cluster.kmeans_ms":                   "op_mean_ms · methodology-warm; service-mixed",
	"cluster.lloyd_iters":                 "op_mean_ms · methodology-warm; service-mixed",
	"ga.select_ms":                        "op_mean_ms · methodology-warm",
	"ga.evaluations":                      "op_mean_ms · methodology-warm",
	"core.export_json_ms":                 "op_mean_ms · methodology-warm",
	"serve.job_p50_ms":                    "op_mean_ms · service-mixed",
	"serve.job_p90_ms":                    "op_mean_ms · service-mixed",
	"serve.submit_ms":                     "op_mean_ms · service-mixed",
	"serve.queue_wait_ms":                 "op_mean_ms · service-mixed",
	"serve.job_run_computed_ms":           "op_mean_ms · service-mixed",
	"serve.job_run_resumed_ms":            "op_mean_ms · service-mixed",
	"serve.result_ms":                     "op_mean_ms · service-mixed",
	"serve.nearest_p50_ms":                "op_mean_ms · service-mixed",
	"serve.nearest_p95_ms":                "op_mean_ms · service-mixed",
	"serve.uniqueness_p50_ms":             "op_mean_ms · service-mixed",
	"serve.http_overhead_ms":              "serve.nearest_p50_ms · service-mixed",
	"serve.metrics_bytes":                 "peak_heap_mb · service-mixed",
	"obs.spans_retained":                  "peak_heap_mb · service-mixed",
	"corpus.nearest_ms":                   "op_mean_ms · service-mixed",
	"corpus.uniqueness_ms":                "op_mean_ms · service-mixed",
	"corpus.ingest_ms":                    "op_mean_ms · service-mixed",
	"corpus.first_query_after_ingest_ms":  "op_mean_ms · service-mixed",
	"corpus.scan_rows_per_query":          "op_mean_ms · service-mixed",
	"corpus.rows":                         "peak_heap_mb · service-mixed",
	"harness.trace_overhead_frac":         "none: the tracing's own cost",
}

// replayInstructions is about how many synthetic instructions the
// characterization replay covers: a few seconds of single-threaded work,
// enough that per-instruction figures settle.
const replayInstructions = 3_000_000

// sampleUnique draws a seeded sample of n distinct intervals from refs.
func sampleUnique(refs []core.IntervalRef, n int, seed int64) []core.IntervalRef {
	type key struct {
		id    string
		index int
	}
	seen := map[key]bool{}
	var unique []core.IntervalRef
	for _, r := range refs {
		k := key{r.Bench.ID(), r.Index}
		if !seen[k] {
			seen[k] = true
			unique = append(unique, r)
		}
	}
	rng := trace.NewRNG(uint64(derivedSeed(seed, saltReplay, 0)))
	for i := len(unique) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		unique[i], unique[j] = unique[j], unique[i]
	}
	return unique[:min(n, len(unique))]
}

// characterizationLedger replays a seeded sample of the run's unique
// intervals through each characterization layer's public entry point
// alone, then through core.Characterize, so the layers can be set against
// the stage they make up.
func characterizationLedger(r *run, res *core.Result) error {
	cfg := res.Config
	length := cfg.IntervalLength
	sample := sampleUnique(res.Dataset.Refs, replayInstructions/length, r.seed)

	buf := make([]isa.Instruction, trace.DefaultBatchSize)
	store := make([]isa.Instruction, 0, length)
	var batches [][]isa.Instruction
	var outcomes [][]ppm.Outcome
	analyzer := mica.NewAnalyzer()
	groups := ppm.StandardGroups()
	ilpA, err := ilp.NewAnalyzer(ilp.StandardWindows)
	if err != nil {
		return err
	}
	var genNs, micaNs, ppmNs, ilpNs, instrs int64
	for _, ref := range sample {
		beh := ref.Bench.BehaviorAt(ref.Index, ref.Total)
		seed := ref.Bench.IntervalSeed(ref.Index)

		t0 := time.Now()
		if err := trace.GenerateIntervalBatches(beh, seed, length, buf, func([]isa.Instruction) {}); err != nil {
			return err
		}
		genNs += time.Since(t0).Nanoseconds()

		// Keep the interval's batches so every analyzer sees the same
		// instructions the program's kernel would.
		store, batches, outcomes = store[:0], batches[:0], outcomes[:0]
		err := trace.GenerateIntervalBatches(beh, seed, length, buf, func(b []isa.Instruction) {
			lo := len(store)
			store = append(store, b...)
			batches = append(batches, store[lo:len(store):len(store)])
			var outs []ppm.Outcome
			for i := range b {
				if b[i].Op.IsConditional() {
					outs = append(outs, ppm.Outcome{PC: b[i].PC, Taken: b[i].Taken})
				}
			}
			outcomes = append(outcomes, outs)
		})
		if err != nil {
			return err
		}

		analyzer.Reset()
		t0 = time.Now()
		for _, b := range batches {
			analyzer.RecordBatch(b)
		}
		analyzer.Vector()
		micaNs += time.Since(t0).Nanoseconds()

		for g := range groups {
			groups[g].Reset()
		}
		t0 = time.Now()
		for _, outs := range outcomes {
			if len(outs) == 0 {
				continue
			}
			for g := range groups {
				groups[g].RecordAll(outs)
			}
		}
		ppmNs += time.Since(t0).Nanoseconds()

		ilpA.Reset()
		t0 = time.Now()
		for _, b := range batches {
			ilpA.RecordBatch(b)
		}
		ilpNs += time.Since(t0).Nanoseconds()
		instrs += int64(length)
	}
	perInstr := func(ns int64) float64 { return float64(ns) / float64(instrs) }
	traceNs, micaPer := perInstr(genNs), perInstr(micaNs)
	r.layer("trace.ns_per_instr", "ns", traceNs)
	r.layer("mica.ns_per_instr", "ns", micaPer)
	r.layer("mica.ppm.ns_per_instr", "ns", perInstr(ppmNs))
	r.layer("mica.ilp.ns_per_instr", "ns", perInstr(ilpNs))
	r.layer("mica.scalar.ns_per_instr", "ns", perInstr(micaNs-ppmNs-ilpNs))

	// The same sample through the stage itself, with the pool's busy time
	// from the program's own par counters.
	ccfg := cfg
	ccfg.CacheDir = ""
	ccfg.Workers = r.workers
	ccfg.Metrics = obs.New()
	prev := par.Instrument(ccfg.Metrics)
	t0 := time.Now()
	ds, err := core.Characterize(sample, ccfg)
	wall := time.Since(t0)
	par.Instrument(prev)
	if err != nil {
		return err
	}
	busy := float64(ccfg.Metrics.Counter("par.worker_busy_ns").Value())
	charPer := float64(wall.Nanoseconds()) / float64(ds.Instructions)
	r.layer("core.characterize_ns_per_instr", "ns", charPer)
	r.layer("core.characterize_unattributed_frac", "frac",
		unattributedFrac(busy/float64(ds.Instructions), traceNs, micaPer))
	r.layer("par.busy_frac", "frac", busyFrac(busy, float64(wall.Nanoseconds()), r.workers))
	logf("replayed %d intervals (%d instructions): trace %.1f + mica %.1f ns/instr alone; characterize %.1f ns/instr wall, %.1f busy",
		len(sample), instrs, traceNs, micaPer, charPer, busy/float64(ds.Instructions))
	return cacheLedger(r, sample, ds, length)
}

// cacheLedger times the interval-vector cache's put and get per vector on
// the sample's vectors, in a scratch cache directory.
func cacheLedger(r *run, sample []core.IntervalRef, ds *core.Dataset, length int) error {
	dir, err := r.dir("fcache-replay")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	keys := make([]fcache.Key, len(sample))
	for i, ref := range sample {
		keys[i] = core.VectorKey(ref.Bench.BehaviorAt(ref.Index, ref.Total), ref.Bench.IntervalSeed(ref.Index), length)
	}
	c, err := fcache.Open(dir)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i, k := range keys {
		if err := c.PutVector(k, ds.Raw.Row(i)); err != nil {
			return err
		}
	}
	put := time.Since(t0)
	if c, err = fcache.Open(dir); err != nil {
		return err
	}
	t0 = time.Now()
	for i, k := range keys {
		v, ok := c.GetVector(k, mica.NumMetrics)
		if !ok || !slices.Equal(v, ds.Raw.Row(i)) {
			return fmt.Errorf("fcache replay: vector %d did not read back", i)
		}
	}
	get := time.Since(t0)
	n := float64(len(keys))
	r.layer("fcache.put_us", "us", float64(put.Nanoseconds())/1e3/n)
	r.layer("fcache.get_us", "us", float64(get.Nanoseconds())/1e3/n)
	return nil
}

// analysisLedger reruns the analysis stages on the run's own matrix with
// the run's own options, each through its public entry point.
func analysisLedger(r *run, res *core.Result) error {
	cfg := res.Config
	raw := res.Dataset.Raw
	t0 := time.Now()
	pca, err := stats.ComputePCA(raw, true)
	if err != nil {
		return err
	}
	t1 := time.Now()
	scores, err := pca.RescaledScores(raw, pca.NumRetained(cfg.MinPCStd))
	if err != nil {
		return err
	}
	t2 := time.Now()
	m := obs.New()
	opts := cfg.KMeans
	opts.Metrics = m
	cl, err := cluster.KMeans(scores, cfg.NumClusters, opts)
	if err != nil {
		return err
	}
	t3 := time.Now()
	if !slices.Equal(cl.Assignments, res.Clusters.Assignments) {
		return fmt.Errorf("k-means replay disagrees with the run's clustering")
	}
	evals := cfg.Metrics.Counter("ga.evaluations")
	before := evals.Value()
	t4 := time.Now()
	if _, err := res.SelectKeyCharacteristics(cfg.KeyCharacteristics); err != nil {
		return err
	}
	t5 := time.Now()
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		return err
	}
	t6 := time.Now()
	r.layer("stats.pca_ms", "ms", ms(t1.Sub(t0)))
	r.layer("stats.scores_ms", "ms", ms(t2.Sub(t1)))
	r.layer("cluster.kmeans_ms", "ms", ms(t3.Sub(t2)))
	r.layer("cluster.lloyd_iters", "count", float64(m.Counter("kmeans.lloyd_iters").Value()))
	r.layer("ga.select_ms", "ms", ms(t5.Sub(t4)))
	r.layer("ga.evaluations", "count", float64(evals.Value()-before))
	r.layer("core.export_json_ms", "ms", ms(t6.Sub(t5)))
	return nil
}

// ledger is the methodology workloads' traced-run report: the tracing's
// own cost and the cache hit ratio from the measured repetitions, replays
// of every characterization and analysis layer on the last repetition's
// inputs, and — since these workloads send no traffic through the service
// or the corpus — a short service-mixed phase for those layers.
func (s *repetitions) ledger(r *run) error {
	r.layer("harness.trace_overhead_frac", "frac", median(s.traced)/median(s.plain)-1)
	r.layer("fcache.hit_frac", "frac", frac(s.hits, s.lookups-s.hits))
	if err := characterizationLedger(r, s.last.res); err != nil {
		return err
	}
	if err := analysisLedger(r, s.last.res); err != nil {
		return err
	}
	return serviceLedger(r)
}
