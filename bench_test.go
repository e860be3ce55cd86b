package repro

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper (regenerating the same rows/series the paper reports, at a
// reduced scale chosen to finish in seconds), plus micro-benchmarks for the
// expensive substrates. Run everything with:
//
//	go test -bench=. -benchmem
//
// Figure/table benchmarks report domain numbers via b.ReportMetric (e.g.
// coverage per suite) in addition to timing.

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/ga"
	"repro/internal/isa"
	"repro/internal/mica"
	"repro/internal/mica/ilp"
	"repro/internal/mica/ppm"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// benchConfig is the scale used by the table/figure benchmarks.
func benchConfig() core.Config {
	cfg := core.TestConfig()
	cfg.IntervalLength = 2500
	cfg.SamplesPerBenchmark = 10
	cfg.MaxIntervalsPerBenchmark = 16
	cfg.NumClusters = 80
	cfg.NumProminent = 40
	cfg.KeyCharacteristics = 8
	return cfg
}

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	reg, err := bench.StandardRegistry()
	if err != nil {
		b.Fatal(err)
	}
	return experiments.NewEnv(reg, benchConfig(), "", nil)
}

// runExperiment prices a whole experiment the way a user pays for it
// (`phasechar <id>` without -cache): every iteration builds a fresh Env,
// so it characterizes its intervals from scratch rather than reusing an
// earlier iteration's dataset.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	x, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		env := benchEnv(b)
		if _, err := x.Run(env); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper table/figure --------------------------------

func BenchmarkTable1Inventory(b *testing.B)   { runExperiment(b, "table1") }
func BenchmarkTable2GASelection(b *testing.B) { runExperiment(b, "table2") }
func BenchmarkTable3IntervalCounts(b *testing.B) {
	runExperiment(b, "table3")
}

// BenchmarkFig1GASweep prices the whole GA-sweep figure with a fresh Env
// per iteration, characterization included: what `phasechar fig1` costs.
func BenchmarkFig1GASweep(b *testing.B) { runExperiment(b, "fig1") }

func BenchmarkFig23KiviatPlots(b *testing.B) { runExperiment(b, "fig23") }

func BenchmarkFig4Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv(b)
		if _, err := experiments.Fig4(env); err != nil {
			b.Fatal(err)
		}
		res, err := env.Result()
		if err != nil {
			b.Fatal(err)
		}
		cov := res.SuiteCoverage()
		for _, s := range []bench.Suite{bench.SuiteBioPerf, bench.SuiteSPECfp2006, bench.SuiteMediaBench} {
			b.ReportMetric(float64(cov[s]), "clusters/"+string(s))
		}
	}
}

func BenchmarkFig5Diversity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv(b)
		if _, err := experiments.Fig5(env); err != nil {
			b.Fatal(err)
		}
		res, err := env.Result()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.ClustersFor(bench.SuiteSPECfp2006, 0.8)), "c80/SPECfp2006")
		b.ReportMetric(float64(res.ClustersFor(bench.SuiteMediaBench, 0.8)), "c80/MediaBenchII")
	}
}

func BenchmarkFig6Uniqueness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv(b)
		if _, err := experiments.Fig6(env); err != nil {
			b.Fatal(err)
		}
		res, err := env.Result()
		if err != nil {
			b.Fatal(err)
		}
		uf := res.UniqueFraction()
		b.ReportMetric(100*uf[bench.SuiteBioPerf], "%unique/BioPerf")
		b.ReportMetric(100*uf[bench.SuiteMediaBench], "%unique/MediaBenchII")
	}
}

func BenchmarkAblationAggregate(b *testing.B) { runExperiment(b, "ablation-aggregate") }
func BenchmarkAblationK(b *testing.B)         { runExperiment(b, "ablation-k") }
func BenchmarkAblationSampling(b *testing.B)  { runExperiment(b, "ablation-sampling") }

// --- Substrate micro-benchmarks ------------------------------------------

// BenchmarkTraceGeneration measures raw synthetic-instruction throughput.
func BenchmarkTraceGeneration(b *testing.B) {
	reg, err := bench.StandardRegistry()
	if err != nil {
		b.Fatal(err)
	}
	bm, err := reg.Lookup("SPECfp2006/lbm")
	if err != nil {
		b.Fatal(err)
	}
	beh := bm.BehaviorAt(0, 10)
	g, err := trace.NewGenerator(beh, 1)
	if err != nil {
		b.Fatal(err)
	}
	var ins isa.Instruction
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next(&ins)
	}
}

// defaultInterval generates one default-length interval of a roster
// benchmark, as characterize would, and returns its instructions in
// DefaultBatchSize blocks.
func defaultInterval(b *testing.B, name string) [][]isa.Instruction {
	b.Helper()
	reg, err := bench.StandardRegistry()
	if err != nil {
		b.Fatal(err)
	}
	bm, err := reg.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	n := core.DefaultConfig().IntervalLength
	store := make([]isa.Instruction, 0, n)
	var batches [][]isa.Instruction
	err = trace.GenerateIntervalBatches(bm.BehaviorAt(0, 10), bm.IntervalSeed(0), n, nil, func(blk []isa.Instruction) {
		lo := len(store)
		store = append(store, blk...)
		batches = append(batches, store[lo:])
	})
	if err != nil {
		b.Fatal(err)
	}
	return batches
}

// reportPerInstr reports the benchmark's cost per instruction, given the
// instructions one op covers.
func reportPerInstr(b *testing.B, perOp int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(perOp), "ns/instr")
}

// BenchmarkMICACharacterization measures generation + full 69-metric
// analysis, the pipeline's hot loop, as characterize runs it: one op is a
// default-length interval generated and measured block by block by a
// reused analyzer.
func BenchmarkMICACharacterization(b *testing.B) {
	reg, err := bench.StandardRegistry()
	if err != nil {
		b.Fatal(err)
	}
	n := core.DefaultConfig().IntervalLength
	for _, name := range []string{"SPECfp2006/lbm", "BioPerf/grappa", "SPECint2006/astar"} {
		bm, err := reg.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		beh := bm.BehaviorAt(0, 10)
		b.Run(name, func(b *testing.B) {
			a := mica.NewAnalyzer()
			buf := make([]isa.Instruction, trace.DefaultBatchSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Reset()
				if err := trace.GenerateIntervalBatches(beh, bm.IntervalSeed(i%10), n, buf, a.RecordBatch); err != nil {
					b.Fatal(err)
				}
				a.Vector()
			}
			reportPerInstr(b, n)
		})
	}
}

// BenchmarkPPMGroup prices the twelve PPM predictors the way the analyzer
// runs them: the four standard groups each replay one default-length
// interval's branch outcomes in a single RecordAll, with a Reset per
// interval.
func BenchmarkPPMGroup(b *testing.B) {
	for _, name := range []string{"SPECfp2006/lbm", "BioPerf/grappa", "SPECint2006/astar"} {
		var outs []ppm.Outcome
		instrs := 0
		for _, blk := range defaultInterval(b, name) {
			for i := range blk {
				if blk[i].Op.IsConditional() {
					outs = append(outs, ppm.Outcome{PC: blk[i].PC, Taken: blk[i].Taken})
				}
			}
			instrs += len(blk)
		}
		b.Run(name, func(b *testing.B) {
			groups := ppm.StandardGroups()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for g := range groups {
					groups[g].Reset()
					groups[g].RecordAll(outs)
				}
			}
			reportPerInstr(b, instrs)
		})
	}
}

// BenchmarkILPAnalyzer prices the four ideal-window ILP models on one
// default-length interval, block by block through RecordBatch, with a
// Reset per interval.
func BenchmarkILPAnalyzer(b *testing.B) {
	batches := defaultInterval(b, "SPECint2006/astar")
	a, err := ilp.NewAnalyzer(ilp.StandardWindows)
	if err != nil {
		b.Fatal(err)
	}
	instrs := 0
	for _, blk := range batches {
		instrs += len(blk)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Reset()
		for _, blk := range batches {
			a.RecordBatch(blk)
		}
	}
	reportPerInstr(b, instrs)
}

func BenchmarkPCA69Columns(b *testing.B) {
	rng := trace.NewRNG(1)
	data := stats.NewMatrix(500, mica.NumMetrics)
	for i := range data.Data {
		data.Data[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.ComputePCA(data, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKMeansK300(b *testing.B) {
	rng := trace.NewRNG(2)
	data := stats.NewMatrix(3000, 15)
	for i := range data.Data {
		data.Data[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.KMeans(data, 300, cluster.Options{Seed: 1, Restarts: 1, MaxIters: 20}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGASelection(b *testing.B) {
	rng := trace.NewRNG(3)
	data := stats.NewMatrix(100, mica.NumMetrics)
	for i := 0; i < data.Rows; i++ {
		base := rng.Float64() * 10
		row := data.Row(i)
		for j := range row {
			row[j] = base*float64(j%5) + rng.Float64()
		}
	}
	fitness, err := ga.DistanceFitness(data, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := ga.Run(mica.NumMetrics, fitness, ga.Config{
			TargetCount: 12, Seed: int64(i + 1),
			Populations: 2, PopulationSize: 12, MaxGenerations: 10, Patience: 5,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// workerCounts returns the worker counts the parallel benchmarks compare:
// serial, and the machine's GOMAXPROCS when that differs.
func workerCounts() []int {
	if p := runtime.GOMAXPROCS(0); p > 1 {
		return []int{1, p}
	}
	return []int{1}
}

// BenchmarkKMeansParallel measures the parallel k-means restarts and
// assignment kernel across worker counts; results are identical for all
// of them, so the comparison is pure speedup.
func BenchmarkKMeansParallel(b *testing.B) {
	rng := trace.NewRNG(2)
	data := stats.NewMatrix(3000, 15)
	for i := range data.Data {
		data.Data[i] = rng.Float64()
	}
	for _, workers := range workerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cluster.KMeans(data, 300, cluster.Options{
					Seed: 1, Restarts: 4, MaxIters: 20, Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Inertia, "inertia")
			}
			rowsPerOp := float64(4 * data.Rows)
			b.ReportMetric(rowsPerOp*float64(b.N)/b.Elapsed().Seconds(), "restart-rows/s")
		})
	}
}

// BenchmarkGAFitnessParallel measures concurrent genome evaluation with a
// deliberately non-trivial fitness (the paper's distance objective).
func BenchmarkGAFitnessParallel(b *testing.B) {
	rng := trace.NewRNG(3)
	data := stats.NewMatrix(100, mica.NumMetrics)
	for i := 0; i < data.Rows; i++ {
		base := rng.Float64() * 10
		row := data.Row(i)
		for j := range row {
			row[j] = base*float64(j%5) + rng.Float64()
		}
	}
	fitness, err := ga.DistanceFitness(data, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range workerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			evals := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sel, err := ga.Run(mica.NumMetrics, fitness, ga.Config{
					TargetCount: 12, Seed: 7, Workers: workers,
					Populations: 2, PopulationSize: 16, MaxGenerations: 12, Patience: 6,
				})
				if err != nil {
					b.Fatal(err)
				}
				evals += sel.Evaluations
			}
			b.ReportMetric(float64(evals)/b.Elapsed().Seconds(), "evals/s")
		})
	}
}

// BenchmarkSelectKSweep measures the concurrent k-range evaluation used by
// timeline phase detection.
func BenchmarkSelectKSweep(b *testing.B) {
	rng := trace.NewRNG(5)
	data := stats.NewMatrix(400, 8)
	for i := range data.Data {
		data.Data[i] = rng.Float64()
	}
	for _, workers := range workerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cluster.SelectK(data, 1, 12, 0.9, cluster.Options{
					Seed: 1, Restarts: 2, MaxIters: 30, Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.K), "chosen-k")
			}
			b.ReportMetric(12*float64(b.N)/b.Elapsed().Seconds(), "kmeans-fits/s")
		})
	}
}

// BenchmarkCharacterize measures the measurement substrate end to end —
// core.Characterize over the benchConfig sample, cache disabled — and
// reports ns/instruction and instructions/s, the numbers the paper's scale
// (77 benchmarks x 1,000 intervals x 100M instructions) multiplies.
func BenchmarkCharacterize(b *testing.B) {
	reg, err := bench.StandardRegistry()
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchConfig()
	if err := cfg.Validate(); err != nil {
		b.Fatal(err)
	}
	refs := core.SampleRefs(reg, cfg)
	var instructions uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := core.Characterize(refs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		instructions += ds.Instructions
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instructions), "ns/instr")
	b.ReportMetric(float64(instructions)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkCharacterizeCached measures the cache-warm characterization
// path: one untimed cold run populates the interval-vector cache, then
// every timed iteration is served entirely from it (verified via
// CacheHits) — no interval is generated at all.
func BenchmarkCharacterizeCached(b *testing.B) {
	reg, err := bench.StandardRegistry()
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchConfig()
	cfg.CacheDir = b.TempDir()
	if err := cfg.Validate(); err != nil {
		b.Fatal(err)
	}
	refs := core.SampleRefs(reg, cfg)
	if _, err := core.Characterize(refs, cfg); err != nil { // warm the cache
		b.Fatal(err)
	}
	var instructions uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := core.Characterize(refs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if ds.CacheHits != ds.UniqueIntervals {
			b.Fatalf("warm run generated %d intervals", ds.UniqueIntervals-ds.CacheHits)
		}
		instructions += ds.Instructions
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instructions), "ns/instr")
	b.ReportMetric(float64(instructions)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkCharacterizeAppend prices appending one benchmark to a
// characterized roster, as an interleaved pair: "cold" runs the
// full-roster pipeline from nothing, "warm" holds a cache warmed by a
// run over all benchmarks but SPECint2006/mcf, and each timed iteration
// runs the plain full-roster pipeline over it — every baseline interval
// vector is a cache hit and only mcf's intervals are characterized. The
// baseline is restored into a fresh cache directory with the timer
// stopped before every iteration, so each one measures a true N-1 -> N
// append, and the vector-cache counters are asserted so a cold cache
// cannot masquerade as the warm control.
func BenchmarkCharacterizeAppend(b *testing.B) {
	reg, err := bench.StandardRegistry()
	if err != nil {
		b.Fatal(err)
	}
	var keep []*bench.Benchmark
	for _, bm := range reg.All() {
		if bm.ID() != "SPECint2006/mcf" {
			keep = append(keep, bm)
		}
	}
	sub, err := bench.NewRegistry(keep)
	if err != nil {
		b.Fatal(err)
	}
	base := benchConfig()

	b.Run("cold", func(b *testing.B) {
		cfg := base
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(reg, cfg, nil); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("warm", func(b *testing.B) {
		cfg := base
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cfg.CacheDir = b.TempDir()
			cfg.Metrics = nil
			if _, err := core.Run(sub, cfg, nil); err != nil { // restore the N-1 baseline
				b.Fatal(err)
			}
			m := obs.New()
			cfg.Metrics = m
			b.StartTimer()
			if _, err := core.Run(reg, cfg, nil); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			hits := m.Counter("fcache.hits.vector").Value()
			misses := m.Counter("fcache.misses.vector").Value()
			if hits == 0 || misses == 0 {
				b.Fatalf("append read %d cached vectors and characterized %d; want both nonzero", hits, misses)
			}
			b.ReportMetric(float64(hits), "cached-vectors")
			b.StartTimer()
		}
	})
}

// BenchmarkFullPipeline measures an end-to-end run at the benchmark scale.
func BenchmarkFullPipeline(b *testing.B) {
	reg, err := bench.StandardRegistry()
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(reg, cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Dataset.Instructions), "instructions")
	}
}

var sinkString string

// BenchmarkKiviatRender measures SVG figure generation.
func BenchmarkKiviatRender(b *testing.B) {
	env := benchEnv(b)
	if _, err := env.Result(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := experiments.Fig23(env)
		if err != nil {
			b.Fatal(err)
		}
		sinkString = out
	}
}

func BenchmarkUarchCPU(b *testing.B) {
	cpu, err := uarch.NewCPU(uarch.BigCore())
	if err != nil {
		b.Fatal(err)
	}
	reg, err := bench.StandardRegistry()
	if err != nil {
		b.Fatal(err)
	}
	bm, err := reg.Lookup("SPECint2006/astar")
	if err != nil {
		b.Fatal(err)
	}
	g, err := trace.NewGenerator(bm.BehaviorAt(0, 10), 1)
	if err != nil {
		b.Fatal(err)
	}
	var ins isa.Instruction
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next(&ins)
		cpu.Record(&ins)
	}
}

func BenchmarkTraceEncode(b *testing.B) {
	reg, err := bench.StandardRegistry()
	if err != nil {
		b.Fatal(err)
	}
	bm, err := reg.Lookup("SPECfp2006/lbm")
	if err != nil {
		b.Fatal(err)
	}
	g, err := trace.NewGenerator(bm.BehaviorAt(0, 10), 1)
	if err != nil {
		b.Fatal(err)
	}
	w := trace.NewWriter(io.Discard)
	var ins isa.Instruction
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next(&ins)
		if err := w.Write(&ins); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorpusQuery prices the phase corpus's online queries on a
// paper-scale database: 77 benchmarks x 150 interval vectors = 11,550
// rows of 69 characteristics — the corpus a full-roster campaign at 150
// samples per benchmark would accumulate. The exact blocked scan is the
// baseline (the target is sub-millisecond); the probed variant is the
// IVF partition layer at a fraction of the rows.
func BenchmarkCorpusQuery(b *testing.B) {
	const (
		nBenches = 77
		perBench = 150
	)
	dir := b.TempDir()
	c, err := corpus.Open(dir, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := trace.NewRNG(11)
	batch := corpus.Batch{Dataset: 0xC0FFEE, Params: 1, Seed: 1}
	for bi := 0; bi < nBenches; bi++ {
		suite := fmt.Sprintf("Suite%d", bi%7)
		name := fmt.Sprintf("%s/bench%02d", suite, bi)
		for s := 0; s < perBench; s++ {
			vec := make([]float64, mica.NumMetrics)
			for j := range vec {
				vec[j] = rng.Float64() + float64(bi%11)*0.1
			}
			batch.Entries = append(batch.Entries, corpus.Entry{
				Bench: name, Suite: suite, Kind: corpus.KindInterval,
				Index: s, Vector: vec,
			})
		}
	}
	if _, err := c.IngestBatch(batch); err != nil {
		b.Fatal(err)
	}
	probe := make([]float64, mica.NumMetrics)
	for j := range probe {
		probe[j] = rng.Float64()
	}
	query := func(b *testing.B, req corpus.QueryRequest) {
		b.Helper()
		var rows int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := c.Query(req)
			if err != nil {
				b.Fatal(err)
			}
			rows += int64(resp.Scanned)
		}
		b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/s")
	}
	b.Run("nearest-exact", func(b *testing.B) {
		query(b, corpus.QueryRequest{Op: "nearest", Vector: probe, K: 10})
	})
	b.Run("nearest-probed", func(b *testing.B) {
		query(b, corpus.QueryRequest{Op: "nearest", Vector: probe, K: 10, Probe: 8})
	})
	b.Run("uniqueness", func(b *testing.B) {
		query(b, corpus.QueryRequest{Op: "uniqueness", Bench: "Suite0/bench00"})
	})
}

func BenchmarkHierarchicalClustering(b *testing.B) {
	rng := trace.NewRNG(9)
	data := stats.NewMatrix(77, 12)
	for i := range data.Data {
		data.Data[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Hierarchical(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCaseStudies(b *testing.B) { runExperiment(b, "casestudies") }
