package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/fcache"
	"repro/internal/obs"
)

func exportJSON(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// corruptCacheEntries flips one payload byte in every cache entry file and
// returns how many entries it damaged.
func corruptCacheEntries(t *testing.T, dir string) int {
	t.Helper()
	var entries []string
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			entries = append(entries, path)
		}
		return nil
	})
	if len(entries) == 0 {
		t.Fatal("cache holds no entries to corrupt")
	}
	for _, p := range entries {
		buf, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		buf[len(buf)/2] ^= 0xff
		if err := os.WriteFile(p, buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return len(entries)
}

// TestShardMergeByteIdentical is the engine's load-bearing invariant: an
// n-shard run — shards characterized in separate invocations, then merged
// by the analysis run — must equal the plain single-process run byte for
// byte, for n in {1, 3}, at two worker counts (merging at a third), both
// on the first merge and on a repeat over the same cache.
func TestShardMergeByteIdentical(t *testing.T) {
	reg := miniRegistry(t)
	ref, err := Run(reg, miniConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	refJSON := exportJSON(t, ref)

	for _, n := range []int{1, 3} {
		for _, workers := range []int{1, 4} {
			cacheDir := t.TempDir()
			// Worker half: one CharacterizeShard invocation per shard,
			// like `phasechar -shard i/n shard` in n processes.
			for i := 0; i < n; i++ {
				cfg := miniConfig()
				cfg.Workers = workers
				cfg.CacheDir = cacheDir
				cfg.Shard = ShardSpec{Index: i, Count: n}
				info, err := CharacterizeShard(reg, cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				if info.Resumed {
					t.Fatalf("shard %d/%d claimed an artifact in a cold cache", i, n)
				}
				if info.UniqueIntervals == 0 {
					t.Fatalf("shard %d/%d characterized nothing", i, n)
				}
			}
			// Merge half, twice over the same cache: the first merge reads
			// the fresh shard artifacts, the repeat reads them again.
			for _, state := range []string{"first", "repeat"} {
				ctx := fmt.Sprintf("%d shards, %d workers, %s merge", n, workers, state)
				cfg := miniConfig()
				cfg.Workers = 5 - workers // merge at a different parallelism than the shards
				cfg.CacheDir = cacheDir
				cfg.Shard = ShardSpec{Index: 0, Count: n}
				cfg.Metrics = obs.New()
				got, err := Run(reg, cfg, nil)
				if err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				datasetsBitIdentical(t, ref.Dataset, got.Dataset, ctx)
				if !bytes.Equal(refJSON, exportJSON(t, got)) {
					t.Fatalf("%s: exported JSON differs from the single-process run", ctx)
				}
				if n > 1 {
					if resumed := cfg.Metrics.Counter("engine.shards_resumed").Value(); resumed != int64(n) {
						t.Fatalf("%s: served %d of %d shards from artifacts", ctx, resumed, n)
					}
				}
			}
		}
	}
}

// TestMergeComputesMissingShards drops one worker invocation from the
// shard half and requires the merge run to compute the hole itself — a
// partial shard fleet degrades to local work, never to failure.
func TestMergeComputesMissingShards(t *testing.T) {
	reg := miniRegistry(t)
	ref, err := Run(reg, miniConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}

	cacheDir := t.TempDir()
	for _, i := range []int{0, 2} { // shard 1 never runs
		cfg := miniConfig()
		cfg.CacheDir = cacheDir
		cfg.Shard = ShardSpec{Index: i, Count: 3}
		if _, err := CharacterizeShard(reg, cfg, nil); err != nil {
			t.Fatal(err)
		}
	}

	cfg := miniConfig()
	cfg.CacheDir = cacheDir
	cfg.Shard = ShardSpec{Index: 0, Count: 3}
	cfg.Metrics = obs.New()
	got, err := Run(reg, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resumed := cfg.Metrics.Counter("engine.shards_resumed").Value(); resumed != 2 {
		t.Fatalf("engine.shards_resumed = %d, want the 2 prebuilt shards", resumed)
	}
	if computed := cfg.Metrics.Counter("engine.shards_computed").Value(); computed != 1 {
		t.Fatalf("engine.shards_computed = %d, want the 1 missing shard", computed)
	}
	datasetsBitIdentical(t, ref.Dataset, got.Dataset, "partial shard fleet")
	if !bytes.Equal(exportJSON(t, ref), exportJSON(t, got)) {
		t.Fatal("merge over a partial shard fleet changed the exported result")
	}
}

// TestResumeSkipsStages reruns the pipeline with the same config over a
// populated cache and requires that zero stages recompute: every stage is
// served from its artifact, visibly (resumed counters and spans), and the
// result stays byte-identical.
func TestResumeSkipsStages(t *testing.T) {
	reg := miniRegistry(t)
	cfg := miniConfig()
	cfg.CacheDir = t.TempDir()
	cfg.Resume = true
	cfg.Metrics = obs.New()
	first, err := Run(reg, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	firstRep := cfg.Metrics.Snapshot()
	if got := firstRep.Counters["engine.stages_computed"]; got != 5 {
		t.Fatalf("cold run computed %d stages, want 5 (characterize pca scores kmeans prominent)", got)
	}
	if got := firstRep.Counters["engine.stages_resumed"]; got != 0 {
		t.Fatalf("cold run resumed %d stages from an empty cache", got)
	}

	warm := miniConfig()
	warm.CacheDir = cfg.CacheDir
	warm.Resume = true
	warm.Metrics = obs.New()
	second, err := Run(reg, warm, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := warm.Metrics.Snapshot()
	if got := rep.Counters["engine.stages_computed"]; got != 0 {
		t.Fatalf("resumed run recomputed %d stages", got)
	}
	if got := rep.Counters["engine.stages_resumed"]; got != 5 {
		t.Fatalf("resumed run resumed %d stages, want all 5", got)
	}
	resumedSpans := map[string]bool{}
	for _, s := range rep.Spans {
		if s.Resumed {
			resumedSpans[s.Stage] = true
		}
	}
	for _, stage := range []string{"characterize", "pca", "scores", "kmeans", "prominent"} {
		if !resumedSpans[stage] {
			t.Fatalf("stage %q has no resumed span in %v", stage, rep.Spans)
		}
	}
	datasetsBitIdentical(t, first.Dataset, second.Dataset, "computed vs resumed")
	if !bytes.Equal(exportJSON(t, first), exportJSON(t, second)) {
		t.Fatal("resume changed the exported result")
	}
}

// subRegistry returns reg minus the named benchmark: the roster before
// an append.
func subRegistry(t *testing.T, reg *bench.Registry, drop string) *bench.Registry {
	t.Helper()
	var keep []*bench.Benchmark
	for _, b := range reg.All() {
		if b.Name != drop {
			keep = append(keep, b)
		}
	}
	if len(keep) == reg.Len() {
		t.Fatalf("benchmark %q not in registry", drop)
	}
	sub, err := bench.NewRegistry(keep)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// TestWarmCacheAppendByteIdentical appends a benchmark over a warm
// interval-vector cache: the grown run must read every baseline vector
// from the cache, characterize only what the cache lacks, and export
// byte-identically to a cold run over the grown roster.
func TestWarmCacheAppendByteIdentical(t *testing.T) {
	reg := miniRegistry(t)
	cfg := miniConfig()
	cfg.NumClusters = 4 // the sub-roster has fewer sampled rows
	cfg.NumProminent = 4

	cold, err := Run(reg, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	warm := cfg
	warm.CacheDir = t.TempDir()
	base, err := Run(subRegistry(t, reg, "f2"), warm, nil)
	if err != nil {
		t.Fatal(err)
	}

	m := obs.New()
	warm.Metrics = m
	res, err := Run(reg, warm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exportJSON(t, cold), exportJSON(t, res)) {
		t.Fatal("warm-cache append export differs from the cold run")
	}
	if got := m.Counter("fcache.hits.vector").Value(); got < int64(base.Dataset.UniqueIntervals) {
		t.Fatalf("fcache.hits.vector = %d, want every one of the baseline's %d vectors", got, base.Dataset.UniqueIntervals)
	}
	if got := m.Counter("fcache.misses.vector").Value(); got == 0 {
		t.Fatal("the appended benchmark was served entirely from the cache")
	}
}

// TestCorruptStageArtifactRegenerates damages every cached artifact —
// interval vectors, the pipeline's stage artifacts and a timeline
// artifact alike — and requires the resumed reruns to recompute
// everything (visibly deleting the bad entries), reproduce the results
// bit for bit, and heal the cache for the runs after.
func TestCorruptStageArtifactRegenerates(t *testing.T) {
	reg := miniRegistry(t)
	b := reg.All()[1] // the two-phase benchmark
	cfg := miniConfig()
	cfg.CacheDir = t.TempDir()
	cfg.Resume = true
	first, err := Run(reg, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	firstTL, err := AnalyzeTimeline(b, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}

	damagedEntries := corruptCacheEntries(t, cfg.CacheDir)

	damaged := miniConfig()
	damaged.CacheDir = cfg.CacheDir
	damaged.Resume = true
	damaged.Metrics = obs.New()
	redone, err := Run(reg, damaged, nil)
	if err != nil {
		t.Fatalf("corrupt stage artifacts must regenerate, not fail: %v", err)
	}
	redoneTL, err := AnalyzeTimeline(b, damaged, 4)
	if err != nil {
		t.Fatalf("a corrupt timeline artifact must regenerate, not fail: %v", err)
	}
	rep := damaged.Metrics.Snapshot()
	if got := rep.Counters["engine.stages_resumed"]; got != 0 {
		t.Fatalf("run trusted %d corrupt stage artifacts", got)
	}
	if got := rep.Counters["engine.resumed.timeline"]; got != 0 {
		t.Fatal("timeline analysis trusted its corrupt artifact")
	}
	if got := rep.Counters["engine.stages_computed"]; got != 5 {
		t.Fatalf("run recomputed %d stages, want 5", got)
	}
	if got := rep.Counters["fcache.corrupt_deleted"]; got != int64(damagedEntries) {
		t.Fatalf("fcache.corrupt_deleted = %d, want %d damaged entries", got, damagedEntries)
	}
	datasetsBitIdentical(t, first.Dataset, redone.Dataset, "computed vs regenerated")
	if !bytes.Equal(exportJSON(t, first), exportJSON(t, redone)) {
		t.Fatal("regeneration changed the exported result")
	}
	if firstTL.Strip() != redoneTL.Strip() {
		t.Fatalf("regenerated timeline strip %q, want %q", redoneTL.Strip(), firstTL.Strip())
	}
	for i := range firstTL.Vectors.Data {
		if math.Float64bits(firstTL.Vectors.Data[i]) != math.Float64bits(redoneTL.Vectors.Data[i]) {
			t.Fatalf("timeline vector element %d differs after regeneration", i)
		}
	}

	// The regenerating runs rewrote every artifact: the next resume is whole.
	healed := miniConfig()
	healed.CacheDir = cfg.CacheDir
	healed.Resume = true
	healed.Metrics = obs.New()
	if _, err := Run(reg, healed, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := AnalyzeTimeline(b, healed, 4); err != nil {
		t.Fatal(err)
	}
	if got := healed.Metrics.Counter("engine.stages_resumed").Value(); got != 5 {
		t.Fatalf("healed cache resumed %d stages, want 5", got)
	}
	if got := healed.Metrics.Counter("engine.resumed.timeline").Value(); got != 1 {
		t.Fatalf("healed cache resumed %d timelines, want 1", got)
	}
}

// TestConcurrentResumeComputesEachStageOnce releases four identical
// resumed runs together over one cache directory and one collector.
// Each of the five stages must be computed exactly once, the other runs
// loading the winner's artifact (and counting the stage as resumed), and
// every export must be byte-identical to a cache-less run.
func TestConcurrentResumeComputesEachStageOnce(t *testing.T) {
	reg := miniRegistry(t)
	ref, err := Run(reg, miniConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	refJSON := exportJSON(t, ref)

	const runs = 4
	cacheDir := t.TempDir()
	m := obs.New()
	results := make([]*Result, runs)
	errs := make([]error, runs)
	var barrier, done sync.WaitGroup
	barrier.Add(1)
	for i := range runs {
		done.Add(1)
		go func() {
			defer done.Done()
			cfg := miniConfig()
			cfg.CacheDir = cacheDir
			cfg.Resume = true
			cfg.Metrics = m
			barrier.Wait()
			results[i], errs[i] = Run(reg, cfg, nil)
		}()
	}
	barrier.Done()
	done.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !bytes.Equal(refJSON, exportJSON(t, results[i])) {
			t.Fatalf("run %d: export differs from the cache-less run", i)
		}
	}
	val := func(name string) int64 { return m.Counter(name).Value() }
	if got := val("engine.stages_computed"); got != 5 {
		t.Fatalf("engine.stages_computed = %d, want 5 (one compute per stage)", got)
	}
	if got := val("engine.stages_resumed"); got != 5*(runs-1) {
		t.Fatalf("engine.stages_resumed = %d, want %d", got, 5*(runs-1))
	}
	for _, stage := range []string{"pca", "kmeans"} {
		if got := val("engine.computed." + stage); got != 1 {
			t.Fatalf("engine.computed.%s = %d, want 1", stage, got)
		}
	}
}

// testArtifact is a stageArtifact whose decoder can be told to refuse a
// payload that passed the cache checksum (an artifact schema skew).
type testArtifact struct {
	data   []byte
	refuse bool
}

func (a *testArtifact) MarshalBinary() ([]byte, error) {
	return append([]byte(nil), a.data...), nil
}

func (a *testArtifact) UnmarshalBinary(data []byte) error {
	if a.refuse {
		return errors.New("test artifact: refusing payload")
	}
	a.data = append([]byte(nil), data...)
	return nil
}

// TestLoadOrComputeDiscardsUndecodableEntry: an entry that passes the
// cache checksum but not the artifact decoder is discarded (counted as
// fcache.corrupt_deleted) and recomputed, and the recomputed artifact is
// what the next lookup loads.
func TestLoadOrComputeDiscardsUndecodableEntry(t *testing.T) {
	cache, err := fcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := obs.New()
	cache.SetMetrics(m)
	key := fcache.Key{Kind: fcache.KindCluster, Version: artifactVersion(), Behavior: 7}
	if err := cache.PutBinary(key, &testArtifact{data: []byte("fine bytes, wrong shape")}); err != nil {
		t.Fatal(err)
	}

	art := &testArtifact{refuse: true}
	computes := 0
	loaded, err := loadOrCompute(cache, key, art, true, func() error {
		computes++
		art.data = []byte("recomputed")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if loaded || computes != 1 {
		t.Fatalf("undecodable entry: loaded=%v after %d computes, want a single recompute", loaded, computes)
	}
	if got := m.Counter("fcache.corrupt_deleted").Value(); got != 1 {
		t.Fatalf("fcache.corrupt_deleted = %d, want 1", got)
	}

	next := &testArtifact{}
	loaded, err = loadOrCompute(cache, key, next, true, func() error {
		t.Fatal("the recomputed artifact was not persisted")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !loaded || string(next.data) != "recomputed" {
		t.Fatalf("next lookup: loaded=%v data=%q, want the recomputed artifact", loaded, next.data)
	}
}

// TestLoadOrComputeWithoutLookup: without a cache the artifact is only
// computed; with lookup off it is computed even over a stored entry, and
// the stored entry is replaced.
func TestLoadOrComputeWithoutLookup(t *testing.T) {
	art := &testArtifact{}
	compute := func() error { art.data = []byte("fresh"); return nil }
	if loaded, err := loadOrCompute(nil, fcache.Key{}, art, true, compute); loaded || err != nil {
		t.Fatalf("cache-less: loaded=%v err=%v", loaded, err)
	}

	cache, err := fcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := fcache.Key{Kind: fcache.KindPCA, Version: artifactVersion(), Behavior: 9}
	if err := cache.PutBinary(key, &testArtifact{data: []byte("stale")}); err != nil {
		t.Fatal(err)
	}
	art.data = nil
	if loaded, err := loadOrCompute(cache, key, art, false, compute); loaded || err != nil {
		t.Fatalf("lookup off: loaded=%v err=%v", loaded, err)
	}
	if got, ok := cache.Get(key); !ok || string(got) != "fresh" {
		t.Fatalf("stored entry = (%q, %v), want the fresh compute", got, ok)
	}
}

// TestTimelineResume pins the per-benchmark analogue: a second
// AnalyzeTimeline with Resume set serves the whole analysis from its
// stage artifact, bit-identically.
func TestTimelineResume(t *testing.T) {
	reg := miniRegistry(t)
	b := reg.All()[1] // the two-phase benchmark
	cfg := miniConfig()
	cfg.CacheDir = t.TempDir()
	first, err := AnalyzeTimeline(b, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Resume = true
	cfg.Metrics = obs.New()
	resumed, err := AnalyzeTimeline(b, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	rep := cfg.Metrics.Snapshot()
	if got := rep.Counters["engine.resumed.timeline"]; got != 1 {
		t.Fatalf("engine.resumed.timeline = %d, want 1", got)
	}
	if got := rep.Counters["kmeans.selectk_fits"]; got != 0 {
		t.Fatalf("resumed timeline still ran %d SelectK fits", got)
	}
	if first.Strip() != resumed.Strip() {
		t.Fatalf("timeline strips differ: %q vs %q", first.Strip(), resumed.Strip())
	}
	if first.NumPhases != resumed.NumPhases || first.Transitions != resumed.Transitions {
		t.Fatalf("timeline shape differs: %d/%d vs %d/%d phases/transitions",
			first.NumPhases, first.Transitions, resumed.NumPhases, resumed.Transitions)
	}
	for i := range first.Vectors.Data {
		if math.Float64bits(first.Vectors.Data[i]) != math.Float64bits(resumed.Vectors.Data[i]) {
			t.Fatalf("timeline vector element %d differs after resume", i)
		}
	}
}

// TestShardArtifactRoundTrip pins the shard codec directly: encode,
// decode, and re-encode must agree, and a truncated payload must be
// rejected rather than decoded into garbage.
func TestShardArtifactRoundTrip(t *testing.T) {
	reg := miniRegistry(t)
	cfg := miniConfig()
	cfg.CacheDir = t.TempDir()
	cfg.Shard = ShardSpec{Index: 0, Count: 3}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	refs := SampleRefs(reg, cfg)
	eng, err := newEngine(reg, cfg, refs, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	art, _, err := eng.computeShard(eng.planShards(refs)[0])
	if err != nil {
		t.Fatal(err)
	}
	buf, err := art.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back shardArtifact
	if err := back.UnmarshalBinary(buf); err != nil {
		t.Fatal(err)
	}
	buf2, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, buf2) {
		t.Fatal("shard artifact does not round-trip byte-identically")
	}
	if back.uniqueCount() != art.uniqueCount() || back.instructions != art.instructions {
		t.Fatalf("round trip changed totals: %d/%d vs %d/%d",
			back.uniqueCount(), back.instructions, art.uniqueCount(), art.instructions)
	}
	for cut := 0; cut < len(buf); cut += 7 {
		var bad shardArtifact
		if err := bad.UnmarshalBinary(buf[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", cut)
		}
	}
}

// TestShardValidation pins the config-level guard rails of the workflow.
func TestShardValidation(t *testing.T) {
	cfg := miniConfig()
	cfg.Shard = ShardSpec{Index: 3, Count: 3}
	cfg.CacheDir = "x"
	if err := cfg.Validate(); err == nil {
		t.Fatal("out-of-range shard index validated")
	}
	cfg = miniConfig()
	cfg.Shard = ShardSpec{Index: 0, Count: 3}
	if err := cfg.Validate(); err == nil {
		t.Fatal("sharded run without a cache directory validated")
	}
	cfg = miniConfig()
	cfg.Resume = true
	if err := cfg.Validate(); err == nil {
		t.Fatal("resume without a cache directory validated")
	}
	cfg = miniConfig()
	if _, err := CharacterizeShard(miniRegistry(t), cfg, nil); err == nil {
		t.Fatal("CharacterizeShard without a cache directory succeeded")
	}
}
