package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/bench"
	"repro/internal/fcache"
	"repro/internal/obs"
)

// noLog discards engine progress output in tests.
func noLog(string, ...any) {}

// TestEncodePutRoundTrip moves both shards of a 2-shard run through the
// remote path — EncodeShard on a cacheless "worker", PutShardArtifact on
// the "coordinator" — and pins that the merge run resumes every shard
// from the transferred artifacts and matches the plain run byte for
// byte.
func TestEncodePutRoundTrip(t *testing.T) {
	reg := miniRegistry(t)
	plain, err := Run(reg, miniConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := exportJSON(t, plain)

	cfg := miniConfig()
	cfg.CacheDir = t.TempDir()
	cfg.Shard = ShardSpec{Index: 0, Count: 2}
	for s := 0; s < 2; s++ {
		workerCfg := miniConfig() // stateless: no cache directory
		workerCfg.Shard = ShardSpec{Index: s, Count: 2}
		entry, info, err := EncodeShard(reg, workerCfg, noLog)
		if err != nil {
			t.Fatalf("EncodeShard %d: %v", s, err)
		}
		if info.Index != s || info.Count != 2 || info.UniqueIntervals == 0 {
			t.Fatalf("EncodeShard %d info = %+v", s, info)
		}
		putCfg := cfg
		putCfg.Shard = ShardSpec{Index: s, Count: 2}
		if _, err := PutShardArtifact(reg, putCfg, entry); err != nil {
			t.Fatalf("PutShardArtifact %d: %v", s, err)
		}
	}

	m := obs.New()
	cfg.Metrics = m
	res, err := Run(reg, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := exportJSON(t, res); !bytes.Equal(got, want) {
		t.Error("merge over transferred shards differs from plain run")
	}
	if got := m.Counter("engine.shards_computed").Value(); got != 0 {
		t.Errorf("engine.shards_computed = %d, want 0 (all shards transferred)", got)
	}
	if got := m.Counter("engine.shards_resumed").Value(); got != 2 {
		t.Errorf("engine.shards_resumed = %d, want 2", got)
	}
}

// shardKeyFor is the fcache key of shard cfg.Shard under (reg, cfg).
func shardKeyFor(t *testing.T, reg *bench.Registry, cfg Config) fcache.Key {
	t.Helper()
	cfg.CacheDir = t.TempDir()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	refs := SampleRefs(reg, cfg)
	eng, err := newEngine(reg, cfg, refs, noLog)
	if err != nil {
		t.Fatal(err)
	}
	p := eng.planShards(refs)[cfg.Shard.Index]
	return eng.keys.shardKey(p.index, p.count, p.benches, len(p.refs))
}

// TestPutShardArtifactRejects pins the coordinator-side verification:
// entries with a skewed schema version (in the key or inside the
// payload), damaged bytes, or the wrong shard's intervals are rejected
// and never stored.
func TestPutShardArtifactRejects(t *testing.T) {
	reg := miniRegistry(t)
	cfg := miniConfig()
	cfg.Shard = ShardSpec{Index: 0, Count: 2}
	entry, _, err := EncodeShard(reg, cfg, noLog)
	if err != nil {
		t.Fatal(err)
	}
	key := shardKeyFor(t, reg, cfg)
	payload, err := fcache.DecodeEntry(key, entry)
	if err != nil {
		t.Fatalf("EncodeShard entry does not decode under the shard key: %v", err)
	}
	cfg.CacheDir = t.TempDir()

	staleKey := key
	staleKey.Version--
	if _, err := PutShardArtifact(reg, cfg, fcache.EncodeEntry(staleKey, payload)); err == nil {
		t.Error("entry keyed under a stale schema version accepted")
	}
	stale := append([]byte(nil), payload...)
	binary.LittleEndian.PutUint32(stale, artifactVersion()-1)
	if _, err := PutShardArtifact(reg, cfg, fcache.EncodeEntry(key, stale)); err == nil {
		t.Error("stale-version payload accepted")
	}

	if _, err := PutShardArtifact(reg, cfg, entry[:len(entry)-5]); err == nil {
		t.Error("truncated entry accepted")
	}

	wrongShard := cfg
	wrongShard.Shard = ShardSpec{Index: 1, Count: 2}
	if _, err := PutShardArtifact(reg, wrongShard, entry); err == nil {
		t.Error("shard 0 entry accepted as shard 1")
	}
}

// TestStaleShardArtifactRecomputes plants a shard artifact whose payload
// carries an older schema version under the current cache key — what an
// out-of-date worker binary would produce — and pins that the merge run
// detects it, recomputes the shard, and still matches the plain run.
// Before shard payloads became self-describing this was undetectable
// through the key alone.
func TestStaleShardArtifactRecomputes(t *testing.T) {
	reg := miniRegistry(t)
	plain, err := Run(reg, miniConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := exportJSON(t, plain)

	cfg := miniConfig()
	cfg.CacheDir = t.TempDir()
	cfg.Shard = ShardSpec{Index: 0, Count: 2}
	entry, _, err := EncodeShard(reg, cfg, noLog)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := fcache.DecodeEntry(shardKeyFor(t, reg, cfg), entry)
	if err != nil {
		t.Fatal(err)
	}
	stale := append([]byte(nil), payload...)
	binary.LittleEndian.PutUint32(stale, artifactVersion()-1)

	// Plant the stale payload at the shard's current content-addressed
	// key, bypassing PutShardArtifact's verification the way a buggy or
	// out-of-date writer would.
	vcfg := cfg
	if err := vcfg.Validate(); err != nil {
		t.Fatal(err)
	}
	refs := SampleRefs(reg, vcfg)
	eng, err := newEngine(reg, vcfg, refs, noLog)
	if err != nil {
		t.Fatal(err)
	}
	p := eng.planShards(refs)[0]
	key := eng.keys.shardKey(p.index, p.count, p.benches, len(p.refs))
	if err := eng.cache.Put(key, stale); err != nil {
		t.Fatal(err)
	}

	m := obs.New()
	cfg.Metrics = m
	res, err := Run(reg, cfg, nil)
	if err != nil {
		t.Fatalf("merge over stale shard artifact: %v", err)
	}
	if got := exportJSON(t, res); !bytes.Equal(got, want) {
		t.Error("recomputed run differs from plain run")
	}
	if got := m.Counter("fcache.corrupt_deleted").Value(); got != 1 {
		t.Errorf("fcache.corrupt_deleted = %d, want 1 (the stale shard entry)", got)
	}
}
