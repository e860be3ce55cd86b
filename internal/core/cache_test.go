package core

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/obs"
)

// cacheTestSetup builds a small sample over the standard registry.
func cacheTestSetup(t *testing.T) ([]IntervalRef, Config) {
	t.Helper()
	reg, err := bench.StandardRegistry()
	if err != nil {
		t.Fatal(err)
	}
	cfg := TestConfig()
	cfg.SamplesPerBenchmark = 2
	cfg.MaxIntervalsPerBenchmark = 4
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	refs := SampleRefs(reg, cfg)[:40]
	return refs, cfg
}

func datasetsBitIdentical(t *testing.T, a, b *Dataset, ctx string) {
	t.Helper()
	if a.Instructions != b.Instructions {
		t.Fatalf("%s: Instructions %d != %d", ctx, a.Instructions, b.Instructions)
	}
	if a.UniqueIntervals != b.UniqueIntervals {
		t.Fatalf("%s: UniqueIntervals %d != %d", ctx, a.UniqueIntervals, b.UniqueIntervals)
	}
	if len(a.Raw.Data) != len(b.Raw.Data) {
		t.Fatalf("%s: matrix sizes differ", ctx)
	}
	for i := range a.Raw.Data {
		if math.Float64bits(a.Raw.Data[i]) != math.Float64bits(b.Raw.Data[i]) {
			t.Fatalf("%s: matrix element %d: %v != %v (bit-exact)", ctx, i, a.Raw.Data[i], b.Raw.Data[i])
		}
	}
}

// TestCharacterizeCacheBitIdentical runs the same sample uncached, cache-
// cold, and cache-warm, and requires all three datasets bit-identical —
// the cache may only change speed, never a single stored bit.
func TestCharacterizeCacheBitIdentical(t *testing.T) {
	refs, cfg := cacheTestSetup(t)

	plain, err := Characterize(refs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.CacheHits != 0 {
		t.Fatalf("uncached run reported %d cache hits", plain.CacheHits)
	}

	cfg.CacheDir = t.TempDir()
	cold, err := Characterize(refs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHits != 0 {
		t.Fatalf("cold cache run reported %d hits", cold.CacheHits)
	}
	cfg.Metrics = obs.New()
	warm, err := Characterize(refs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits != warm.UniqueIntervals {
		t.Fatalf("warm run hit %d of %d unique intervals", warm.CacheHits, warm.UniqueIntervals)
	}
	// The observability layer must agree with the Dataset's own
	// accounting, hit for hit.
	if got := cfg.Metrics.Counter("fcache.hits").Value(); got != int64(warm.CacheHits) {
		t.Fatalf("fcache.hits counter = %d, want CacheHits = %d", got, warm.CacheHits)
	}
	cfg.Metrics = nil

	datasetsBitIdentical(t, plain, cold, "plain vs cold")
	datasetsBitIdentical(t, plain, warm, "plain vs warm")
}

// TestCharacterizeCorruptCacheRegenerates damages every cached entry and
// verifies the next run detects the damage, regenerates bit-identical
// results, and leaves the cache healed.
func TestCharacterizeCorruptCacheRegenerates(t *testing.T) {
	refs, cfg := cacheTestSetup(t)
	cfg.CacheDir = t.TempDir()

	cold, err := Characterize(refs, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte in every entry file.
	var entries []string
	filepath.Walk(cfg.CacheDir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			entries = append(entries, path)
		}
		return nil
	})
	if len(entries) == 0 {
		t.Fatal("cold run produced no cache entries")
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

	cfg.Metrics = obs.New()
	damaged, err := Characterize(refs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if damaged.CacheHits != 0 {
		t.Fatalf("corrupt cache produced %d hits — corrupt entries were trusted", damaged.CacheHits)
	}
	// Every damaged entry's deletion must be visible, not silent.
	if got := cfg.Metrics.Counter("fcache.corrupt_deleted").Value(); got != int64(len(entries)) {
		t.Fatalf("fcache.corrupt_deleted = %d, want %d damaged entries", got, len(entries))
	}
	cfg.Metrics = nil
	datasetsBitIdentical(t, cold, damaged, "cold vs regenerated")

	// The regenerating run must also have healed the cache.
	healed, err := Characterize(refs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if healed.CacheHits != healed.UniqueIntervals {
		t.Fatalf("healed cache hit %d of %d", healed.CacheHits, healed.UniqueIntervals)
	}
	datasetsBitIdentical(t, cold, healed, "cold vs healed")
}

// TestTimelineCacheBitIdentical pins the cached timeline path the same
// way: cold and warm runs must agree bit for bit with the uncached run.
func TestTimelineCacheBitIdentical(t *testing.T) {
	reg, err := bench.StandardRegistry()
	if err != nil {
		t.Fatal(err)
	}
	b := reg.All()[0]
	cfg := TestConfig()
	cfg.MaxIntervalsPerBenchmark = 6

	plain, err := AnalyzeTimeline(b, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CacheDir = t.TempDir()
	cold, err := AnalyzeTimeline(b, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := AnalyzeTimeline(b, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range []*Timeline{cold, warm} {
		if plain.Strip() != other.Strip() {
			t.Fatalf("timeline strips differ: %q vs %q", plain.Strip(), other.Strip())
		}
		for i := range plain.Vectors.Data {
			if math.Float64bits(plain.Vectors.Data[i]) != math.Float64bits(other.Vectors.Data[i]) {
				t.Fatalf("timeline vector element %d differs", i)
			}
		}
	}
}
