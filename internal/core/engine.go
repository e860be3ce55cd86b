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
	e := &engine{reg: reg, cfg: cfg, logf: logf}
	if cfg.CacheDir != "" {
		cache, err := fcache.Open(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		cache.SetMetrics(cfg.Metrics)
		e.cache = cache
		e.keys = newArtifactKeys(reg, cfg, len(refs))
	}
	return e, nil
}

// Key accessors tolerate cache-less runs: without a cache there is no
// key chain (e.keys is nil) and the zero Key is never used, because
// stage() only touches keys when e.cache is non-nil.

func (e *engine) pcaKey() fcache.Key {
	if e.keys == nil {
		return fcache.Key{}
	}
	return e.keys.pcaKey()
}

func (e *engine) scoresKey() fcache.Key {
	if e.keys == nil {
		return fcache.Key{}
	}
	return e.keys.scoresKey(e.cfg)
}

func (e *engine) clusterKey() fcache.Key {
	if e.keys == nil {
		return fcache.Key{}
	}
	return e.keys.clusterKey(e.cfg)
}

func (e *engine) summaryKey() fcache.Key {
	if e.keys == nil {
		return fcache.Key{}
	}
	return e.keys.summaryKey(e.cfg)
}

// markStage counts one stage completion in the engine counters; mode is
// "computed" or "resumed".
func (e *engine) markStage(name, mode string) {
	e.cfg.Metrics.Add("engine.stages_"+mode, 1)
	e.cfg.Metrics.Add("engine."+mode+"."+name, 1)
}

// stage runs one persisted pipeline stage. With resume enabled it first
// tries to load the stage's artifact (a hit fills art and records a
// zero-cost resumed span); otherwise compute must fill art, and the
// result is persisted when a cache is configured. Returns whether the
// stage was resumed.
func (e *engine) stage(name string, key fcache.Key, art stageArtifact, rows int, compute func() error) (bool, error) {
	if e.cache != nil && e.cfg.Resume {
		if e.cache.GetBinary(key, art) {
			e.cfg.Metrics.StartSpan(name).SetRows(rows).SetResumed(true).End()
			e.markStage(name, "resumed")
			e.logf("%s: resumed from stage artifact", name)
			return true, nil
		}
	}
	if err := compute(); err != nil {
		return false, err
	}
	if e.cache != nil {
		// Best-effort: a failed artifact write only costs recomputation on
		// the next resume attempt.
		_ = e.cache.PutBinary(key, art)
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
	vectors, instructions, hits, err := characterizeUnique(work, e.cfg, e.cache)
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
//
// On the artifact-eligible path the compute runs under the cache's
// singleflight (see fcache.GetOrCompute): concurrent service jobs — or
// worker processes sharing the cache directory — needing the same shard
// elect one computer, and the rest read its entry instead of burning a
// duplicate characterization. The plain cold path (single shard, no
// resume) is unchanged: it never consulted the cache before computing
// and still does not.
func (e *engine) loadOrComputeShard(p shardPlan) (*shardArtifact, bool, int, error) {
	if e.cache != nil && (p.count > 1 || e.cfg.Resume) {
		key := e.keys.shardKey(p.index, p.count, p.benches, len(p.refs))
		var computedArt *shardArtifact
		var computedHits int
		payload, computed, err := e.cache.GetOrCompute(key, func() ([]byte, error) {
			a, h, cerr := e.computeShard(p)
			if cerr != nil {
				return nil, cerr
			}
			computedArt, computedHits = a, h
			return a.MarshalBinary()
		})
		if err != nil {
			if computedArt != nil {
				// The shard computed fine but refused to encode for the
				// cache; a persistence failure never fails the run (same
				// contract as the ignored PutBinary error before).
				e.cfg.Metrics.Add("engine.shards_computed", 1)
				return computedArt, false, computedHits, nil
			}
			return nil, false, 0, err
		}
		if computed {
			e.cfg.Metrics.Add("engine.shards_computed", 1)
			return computedArt, false, computedHits, nil
		}
		art := &shardArtifact{}
		if uerr := art.UnmarshalBinary(payload); uerr == nil {
			e.cfg.Metrics.Add("engine.shards_resumed", 1)
			return art, true, 0, nil
		}
		// The entry passed the cache checksum but not the artifact
		// decoder (a schema bump raced this run): discard it so it is
		// never trusted again, and recompute below.
		e.cache.Discard(key)
	}
	art, hits, err := e.computeShard(p)
	if err != nil {
		return nil, false, 0, err
	}
	if e.cache != nil {
		_ = e.cache.PutBinary(e.keys.shardKey(p.index, p.count, p.benches, len(p.refs)), art)
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
