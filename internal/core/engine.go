package core

// The stage engine behind Run: each analysis stage (characterize, pca,
// scores, kmeans, prominent) declares its output as a serializable
// artifact with a content-addressed key (see artifacts.go), persisted
// through internal/fcache. The engine gives Run three properties the old
// monolith lacked:
//
//   - persistable intermediates: with a cache configured, every stage's
//     output is written as a checksummed artifact;
//   - resume: with Config.Resume, a rerun with the same config loads each
//     completed stage's artifact instead of recomputing it (a corrupt or
//     stale artifact misses and the stage recomputes — never fails);
//   - sharded characterization: with Config.Shard.Count > 1, the dominant
//     characterize stage is assembled from per-shard dataset artifacts
//     computed independently (CharacterizeShard / `phasechar -shard`).
//
// Every persisted artifact — the analysis stages, the dataset shards and
// AnalyzeTimeline's whole-benchmark analysis — goes through one
// load-or-compute path (loadOrCompute). Where an artifact may be read
// back (resume, merge), the lookup runs under the cache's singleflight
// (fcache.GetOrCompute), so concurrent identical runs sharing a cache
// compute each stage once and the rest load the winner's artifact.
//
// The load-bearing invariant: loading an artifact is bit-for-bit
// equivalent to recomputing it, so any mix of computed, resumed and
// merged stages yields a byte-identical Result at any worker count.

import (
	"encoding"
	"fmt"

	"repro/internal/bench"
	"repro/internal/fcache"
	"repro/internal/mica"
	"repro/internal/obs"
	"repro/internal/stats"
)

// stageArtifact is what the engine persists and restores per stage.
type stageArtifact interface {
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// engine carries one run's stage-execution state.
type engine struct {
	reg   *bench.Registry
	cfg   Config
	cache *fcache.Cache // nil when no cache directory is configured
	keys  *artifactKeys // nil iff cache is nil
	logf  func(format string, args ...any)
}

// newEngine opens the cache (when configured) and precomputes the
// artifact key chain. refs must be the run's sampled dataset.
func newEngine(reg *bench.Registry, cfg Config, refs []IntervalRef, logf func(string, ...any)) (*engine, error) {
	cache, err := openCache(cfg)
	if err != nil {
		return nil, err
	}
	e := &engine{reg: reg, cfg: cfg, cache: cache, logf: logf}
	if cache != nil {
		e.keys = newArtifactKeys(reg, cfg, len(refs))
	}
	return e, nil
}

// openCache opens cfg's cache directory with cfg's collector installed,
// or returns nil when no cache is configured.
func openCache(cfg Config) (*fcache.Cache, error) {
	if cfg.CacheDir == "" {
		return nil, nil
	}
	cache, err := fcache.Open(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	cache.SetMetrics(cfg.Metrics)
	return cache, nil
}

// loadOrCompute is the one path by which an artifact is loaded from the
// cache or computed and persisted; compute must fill art. Without a
// cache it only computes. With lookup off it computes and then persists
// art best-effort (a failed write only costs a later recompute). With
// lookup on it goes through the cache's singleflight, so concurrent
// callers needing the same key compute it once and the rest decode the
// winner's entry; an entry that passes the cache checksum but not art's
// decoder (an artifact schema skew) is discarded and recomputed. Reports
// whether art was loaded rather than computed by this call.
func loadOrCompute(cache *fcache.Cache, key fcache.Key, art stageArtifact, lookup bool, compute func() error) (loaded bool, err error) {
	if cache == nil {
		return false, compute()
	}
	if lookup {
		computed := false
		payload, _, err := cache.GetOrCompute(key, func() ([]byte, error) {
			if err := compute(); err != nil {
				return nil, err
			}
			computed = true
			return art.MarshalBinary()
		})
		switch {
		case computed:
			// An encode or persist failure never fails the run.
			return false, nil
		case err != nil:
			return false, err
		case art.UnmarshalBinary(payload) == nil:
			return true, nil
		}
		cache.Discard(key)
	}
	if err := compute(); err != nil {
		return false, err
	}
	_ = cache.PutBinary(key, art)
	return false, nil
}

// stageKey names the artifact of the analysis stage of the given kind.
// Without a cache there is no key chain, and loadOrCompute never reads
// the zero Key returned.
func (e *engine) stageKey(kind uint16) fcache.Key {
	switch {
	case e.keys == nil:
		return fcache.Key{}
	case kind == fcache.KindPCA:
		return e.keys.pcaKey()
	case kind == fcache.KindScores:
		return e.keys.scoresKey(e.cfg)
	case kind == fcache.KindCluster:
		return e.keys.clusterKey(e.cfg)
	}
	return e.keys.summaryKey(e.cfg)
}

// markStage counts one stage completion in the engine counters; mode is
// "computed" or "resumed".
func (e *engine) markStage(name, mode string) {
	e.cfg.Metrics.Add("engine.stages_"+mode, 1)
	e.cfg.Metrics.Add("engine."+mode+"."+name, 1)
}

// stage runs one persisted pipeline stage through loadOrCompute, looking
// its artifact up only under resume. A loaded artifact (a resume hit, or
// another run's concurrent compute of the same stage) records a
// zero-cost resumed span; otherwise compute filled art. Returns whether
// the stage was resumed.
func (e *engine) stage(name string, key fcache.Key, art stageArtifact, rows int, compute func() error) (bool, error) {
	loaded, err := loadOrCompute(e.cache, key, art, e.cfg.Resume, compute)
	if err != nil {
		return false, err
	}
	if loaded {
		e.cfg.Metrics.StartSpan(name).SetRows(rows).SetResumed(true).End()
		e.markStage(name, "resumed")
		e.logf("%s: resumed from stage artifact", name)
		return true, nil
	}
	e.markStage(name, "computed")
	return false, nil
}

// shardPlan is one shard's slice of the sampled dataset.
type shardPlan struct {
	index, count int
	// benches lists the shard's registry benchmark indices.
	benches []int
	// refs are the shard's sampled rows (registry/sample order).
	refs []IntervalRef
}

// planShards partitions the sampled refs into cfg.Shard.Count shards by
// registry position (benchmark i goes to shard i % count). The partition
// depends only on the registry order and the count, never on workers or
// cache state, so every process plans identically.
func (e *engine) planShards(refs []IntervalRef) []shardPlan {
	count := e.cfg.Shard.Count
	if count < 1 {
		count = 1
	}
	plans := make([]shardPlan, count)
	idx := make(map[string]int, e.reg.Len())
	for i, b := range e.reg.All() {
		idx[b.ID()] = i
		s := i % count
		plans[s].benches = append(plans[s].benches, i)
	}
	for i := range plans {
		plans[i].index, plans[i].count = i, count
	}
	for _, r := range refs {
		s := idx[r.Bench.ID()] % count
		plans[s].refs = append(plans[s].refs, r)
	}
	return plans
}

// computeShard characterizes one shard's unique intervals and packages
// them as a shard artifact, plus the vector-cache hit count.
func (e *engine) computeShard(p shardPlan) (*shardArtifact, int, error) {
	type ik struct {
		id    string
		index int
	}
	seen := make(map[ik]bool, len(p.refs))
	var work []IntervalRef
	for _, r := range p.refs {
		k := ik{r.Bench.ID(), r.Index}
		if !seen[k] {
			seen[k] = true
			work = append(work, r)
		}
	}
	vectors, instructions, hits, err := characterizeUnique("characterize", work, e.cfg, e.cache)
	if err != nil {
		return nil, 0, err
	}
	art := &shardArtifact{instructions: instructions}
	// refs are contiguous per benchmark, and dedup preserves first
	// appearance, so work is grouped by benchmark too.
	for i := 0; i < len(work); {
		id := work[i].Bench.ID()
		j := i
		for j < len(work) && work[j].Bench.ID() == id {
			j++
		}
		sb := shardBench{id: id, indices: make([]int, 0, j-i), vectors: stats.NewMatrix(j-i, mica.NumMetrics)}
		for r := i; r < j; r++ {
			sb.indices = append(sb.indices, work[r].Index)
			copy(sb.vectors.Row(r-i), vectors.Row(r))
		}
		art.benches = append(art.benches, sb)
		i = j
	}
	return art, hits, nil
}

// loadOrComputeShard serves one shard from its artifact when allowed
// (merge runs always look, single-shard runs only under resume) and
// characterizes it otherwise. Returns the artifact, whether it was
// loaded, and the characterize-stage vector-cache hits.
func (e *engine) loadOrComputeShard(p shardPlan) (*shardArtifact, bool, int, error) {
	var key fcache.Key
	if e.keys != nil {
		key = e.keys.shardKey(p.index, p.count, p.benches, len(p.refs))
	}
	art := &shardArtifact{}
	hits := 0
	loaded, err := loadOrCompute(e.cache, key, art, p.count > 1 || e.cfg.Resume, func() error {
		a, h, err := e.computeShard(p)
		if err != nil {
			return err
		}
		*art, hits = *a, h
		return nil
	})
	if err != nil {
		return nil, false, 0, err
	}
	if loaded {
		e.cfg.Metrics.Add("engine.shards_resumed", 1)
		return art, true, 0, nil
	}
	e.cfg.Metrics.Add("engine.shards_computed", 1)
	return art, false, hits, nil
}

// characterize runs the (possibly sharded) characterization stage and
// merges the shard artifacts into the run's Dataset. Returns whether the
// whole stage was served from artifacts.
func (e *engine) characterize(refs []IntervalRef) (*Dataset, bool, error) {
	if len(refs) == 0 {
		return nil, false, fmt.Errorf("core: no intervals to characterize")
	}
	plans := e.planShards(refs)
	arts := make([]*shardArtifact, len(plans))
	resumed := true
	var instructions uint64
	cacheHits := 0
	for i := range plans {
		art, loaded, hits, err := e.loadOrComputeShard(plans[i])
		if err != nil {
			return nil, false, err
		}
		if loaded {
			// Every interval the artifact holds was served from the cache.
			cacheHits += art.uniqueCount()
		} else {
			resumed = false
			cacheHits += hits
		}
		instructions += art.instructions
		arts[i] = art
	}

	unique := 0
	for _, art := range arts {
		unique += art.uniqueCount()
	}
	if resumed {
		e.cfg.Metrics.StartSpan("characterize").SetRows(unique).SetResumed(true).End()
		e.logf("characterize: resumed %d shard artifact(s)", len(arts))
		e.markStage("characterize", "resumed")
	} else {
		e.markStage("characterize", "computed")
	}

	var mergeSpan *obs.Span // only recorded for merge runs
	if len(plans) > 1 {
		mergeSpan = e.cfg.Metrics.StartSpan("merge").SetRows(len(refs))
	}
	type ik struct {
		id    string
		index int
	}
	vecs := make(map[ik][]float64, unique)
	for _, art := range arts {
		for bi := range art.benches {
			sb := &art.benches[bi]
			for j, idx := range sb.indices {
				vecs[ik{sb.id, idx}] = sb.vectors.Row(j)
			}
		}
	}
	raw := stats.NewMatrix(len(refs), mica.NumMetrics)
	for i, r := range refs {
		v, ok := vecs[ik{r.Bench.ID(), r.Index}]
		if !ok {
			return nil, false, fmt.Errorf("core: shard artifacts are missing interval %s", r)
		}
		copy(raw.Row(i), v)
	}
	mergeSpan.End()
	return &Dataset{
		Refs:            append([]IntervalRef(nil), refs...),
		Raw:             raw,
		UniqueIntervals: unique,
		Instructions:    instructions,
		CacheHits:       cacheHits,
	}, resumed, nil
}

// ShardInfo summarizes one CharacterizeShard invocation.
type ShardInfo struct {
	// Index / Count echo the shard coordinates.
	Index, Count int
	// Benchmarks is how many registry benchmarks the shard covers.
	Benchmarks int
	// Refs is the shard's sampled row count.
	Refs int
	// UniqueIntervals is how many distinct intervals the artifact holds.
	UniqueIntervals int
	// Instructions is the shard's characterized instruction total.
	Instructions uint64
	// Resumed reports that a valid artifact was already present and the
	// shard was not recomputed.
	Resumed bool
}

// CharacterizeShard characterizes exactly one shard of the sampled
// dataset and persists it as a shard artifact in the cache — the worker
// half of the shard→merge workflow (`phasechar -shard i/n`). A shard
// whose artifact is already present and valid is skipped. Requires
// cfg.CacheDir; cfg.Shard selects the shard.
func CharacterizeShard(reg *bench.Registry, cfg Config, logf func(string, ...any)) (*ShardInfo, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.CacheDir == "" {
		return nil, fmt.Errorf("core: shard characterization needs a cache directory to write the artifact to")
	}
	if reg.Len() == 0 {
		return nil, fmt.Errorf("core: empty benchmark registry")
	}
	count := cfg.Shard.Count
	if count < 1 {
		count = 1
	}
	if cfg.Shard.Index < 0 || cfg.Shard.Index >= count {
		return nil, fmt.Errorf("core: shard index %d outside [0,%d)", cfg.Shard.Index, count)
	}
	refs := SampleRefs(reg, cfg)
	eng, err := newEngine(reg, cfg, refs, logf)
	if err != nil {
		return nil, err
	}
	p := eng.planShards(refs)[cfg.Shard.Index]
	logf("shard %d/%d: %d benchmarks, %d sampled intervals",
		p.index, p.count, len(p.benches), len(p.refs))
	art, loaded, _, err := eng.loadOrComputeShard(p)
	if err != nil {
		return nil, err
	}
	if loaded {
		logf("shard %d/%d: artifact already present (%d unique intervals), nothing to do", p.index, p.count, art.uniqueCount())
	} else {
		logf("shard %d/%d: characterized %d unique intervals (%d instructions)",
			p.index, p.count, art.uniqueCount(), art.instructions)
	}
	return &ShardInfo{
		Index:           p.index,
		Count:           p.count,
		Benchmarks:      len(p.benches),
		Refs:            len(p.refs),
		UniqueIntervals: art.uniqueCount(),
		Instructions:    art.instructions,
		Resumed:         loaded,
	}, nil
}
