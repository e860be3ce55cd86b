package core

import (
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/fcache"
	"repro/internal/isa"
	"repro/internal/mica"
	"repro/internal/par"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Per-benchmark phase detection (the SimPoint-style analysis of the
// paper's section 6.1 related work): characterize every interval of one
// benchmark in execution order, cluster the intervals with BIC-selected k,
// and read the time-varying phase structure off the assignments.

// Timeline is a benchmark's detected phase structure over time.
type Timeline struct {
	// BenchID is the analyzed benchmark.
	BenchID string
	// Phases[i] is the detected phase of interval i (0-based, in order
	// of first appearance).
	Phases []int
	// NumPhases is the BIC-selected number of distinct phases.
	NumPhases int
	// Transitions counts phase changes between consecutive intervals.
	Transitions int
	// Vectors holds the per-interval 69-characteristic vectors.
	Vectors *stats.Matrix
}

// AnalyzeTimeline detects phases in one benchmark's execution. maxPhases
// bounds the BIC model search (the paper-adjacent SimPoint tooling uses a
// small maximum, typically 10).
func AnalyzeTimeline(b *bench.Benchmark, cfg Config, maxPhases int) (*Timeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if maxPhases < 1 {
		return nil, fmt.Errorf("core: maxPhases %d < 1", maxPhases)
	}
	var cache *fcache.Cache
	if cfg.CacheDir != "" {
		var err error
		if cache, err = fcache.Open(cfg.CacheDir); err != nil {
			return nil, err
		}
		cache.SetMetrics(cfg.Metrics)
	}
	total := b.ScaledIntervals(cfg.MaxIntervalsPerBenchmark)
	var tKey fcache.Key
	if cache != nil {
		tKey = timelineKey(b, cfg, maxPhases, total)
		if cfg.Resume {
			// Resume: the whole analysis is one persisted artifact. A
			// corrupt or missing entry just falls through to recompute.
			art := &timelineArtifact{}
			if cache.GetBinary(tKey, art) {
				cfg.Metrics.StartSpan("timeline.resume").SetRows(total).SetResumed(true).End()
				cfg.Metrics.Add("engine.resumed.timeline", 1)
				return &art.t, nil
			}
		}
	}
	// Characterize the intervals over the worker pool (one analyzer per
	// worker, one matrix row per interval — worker-count deterministic),
	// reusing cached interval vectors when a cache is configured.
	vectors := stats.NewMatrix(total, mica.NumMetrics)
	workers := par.Workers(cfg.Workers)
	span := cfg.Metrics.StartSpan("timeline.characterize").SetRows(total).SetWorkers(workers)
	analyzers := make([]*mica.Analyzer, workers)
	buffers := make([][]isa.Instruction, workers)
	errs := make([]error, total)
	par.ForWorker(workers, total, func(w, i int) {
		beh := b.BehaviorAt(i, total)
		seed := b.IntervalSeed(i)
		var key fcache.Key
		if cache != nil {
			key = VectorKey(beh, seed, cfg.IntervalLength)
			if cache.GetVectorInto(key, vectors.Row(i)) {
				return
			}
		}
		analyzer := analyzers[w]
		if analyzer == nil {
			analyzer = mica.NewAnalyzer()
			analyzers[w] = analyzer
			buffers[w] = make([]isa.Instruction, trace.DefaultBatchSize)
		}
		analyzer.Reset()
		if err := trace.GenerateIntervalBatches(beh, seed, cfg.IntervalLength, buffers[w], analyzer.RecordBatch); err != nil {
			errs[i] = err
			return
		}
		analyzer.VectorInto(vectors.Row(i))
		if cache != nil {
			_ = cache.PutVector(key, vectors.Row(i))
		}
	})
	span.End()
	if err := par.FirstError(errs); err != nil {
		return nil, err
	}

	span = cfg.Metrics.StartSpan("timeline.pca").SetRows(total)
	pca, err := stats.ComputePCA(vectors, true)
	span.End()
	if err != nil {
		return nil, err
	}
	// Unlike the cross-benchmark pipeline (which rescales components to
	// weigh all underlying characteristics equally), phase detection
	// keeps the variance weighting: within one benchmark the dominant
	// components ARE the phase structure, and rescaling would drown them
	// in jitter noise. This matches SimPoint's use of raw projections.
	scores, err := pca.Project(vectors, pca.NumRetained(cfg.MinPCStd))
	if err != nil {
		return nil, err
	}

	// SimPoint-style model selection: smallest k reaching 90% of the
	// BIC range.
	span = cfg.Metrics.StartSpan("timeline.selectk").SetRows(total).SetWorkers(workers)
	best, err := cluster.SelectK(scores, 1, maxPhases, 0.9,
		cluster.Options{Seed: cfg.Seed, Restarts: 2, MaxIters: 50, Workers: cfg.Workers, Metrics: cfg.Metrics})
	span.End()
	if err != nil {
		return nil, err
	}

	// Relabel phases by first appearance so timelines read naturally.
	relabel := map[int]int{}
	phases := make([]int, total)
	transitions := 0
	for i, c := range best.Assignments {
		id, ok := relabel[c]
		if !ok {
			id = len(relabel)
			relabel[c] = id
		}
		phases[i] = id
		if i > 0 && phases[i] != phases[i-1] {
			transitions++
		}
	}
	tl := &Timeline{
		BenchID:     b.ID(),
		Phases:      phases,
		NumPhases:   len(relabel),
		Transitions: transitions,
		Vectors:     vectors,
	}
	if cache != nil {
		// Best-effort, like every artifact write: a failure only costs a
		// future recompute.
		_ = cache.PutBinary(tKey, &timelineArtifact{t: *tl})
	}
	return tl, nil
}

// Strip renders the timeline as a one-character-per-interval strip, e.g.
// "AAAABBBBAAAA", using letters in order of first appearance.
func (t *Timeline) Strip() string {
	var b strings.Builder
	for _, p := range t.Phases {
		if p < 26 {
			b.WriteByte(byte('A' + p))
		} else {
			b.WriteByte('+')
		}
	}
	return b.String()
}

// PhaseShares returns each detected phase's fraction of the execution.
func (t *Timeline) PhaseShares() []float64 {
	if len(t.Phases) == 0 {
		return nil
	}
	shares := make([]float64, t.NumPhases)
	for _, p := range t.Phases {
		shares[p]++
	}
	for i := range shares {
		shares[i] /= float64(len(t.Phases))
	}
	return shares
}

// PhaseMeans returns the mean characteristic vector of each detected phase.
func (t *Timeline) PhaseMeans() *stats.Matrix {
	means := stats.NewMatrix(t.NumPhases, t.Vectors.Cols)
	counts := make([]int, t.NumPhases)
	for i, p := range t.Phases {
		row := t.Vectors.Row(i)
		dst := means.Row(p)
		for j := range row {
			dst[j] += row[j]
		}
		counts[p]++
	}
	for p := 0; p < t.NumPhases; p++ {
		if counts[p] == 0 {
			continue
		}
		dst := means.Row(p)
		for j := range dst {
			dst[j] /= float64(counts[p])
		}
	}
	return means
}
