package serve

import (
	"context"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// TestServeHealthz pins the liveness endpoint.
func TestServeHealthz(t *testing.T) {
	ts := startWorker(t, shardRegistry(t))
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}
}

// shardStatus posts req to a worker's /shard and returns the HTTP status.
func shardStatus(t *testing.T, c *Client, req ShardRequest) int {
	t.Helper()
	_, err := c.Shard(context.Background(), req)
	if err == nil {
		return http.StatusOK
	}
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("shard request: %v", err)
	}
	return se.Code
}

// TestShardRefusals pins the refusal statuses: undecodable or oversized
// bodies and out-of-range shard coordinates are 400, version and
// dataset skew are 409, and GET is 405.
func TestShardRefusals(t *testing.T) {
	reg := shardRegistry(t)
	cfg := shardConfig(t)
	ts := startWorker(t, reg)
	c := &Client{Base: ts.URL}

	for _, body := range []string{"garbage", `{"index":` + strings.Repeat(" ", maxShardRequestBytes) + `0}`} {
		resp, err := http.Post(ts.URL+"/shard", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%d-byte body: %d, want 400", len(body), resp.StatusCode)
		}
	}
	hash, err := core.DatasetHash(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		edit func(*ShardRequest)
		want int
	}{
		{"version skew", func(r *ShardRequest) { r.ArtifactVersion++ }, http.StatusConflict},
		{"dataset skew", func(r *ShardRequest) { r.DatasetHash ^= 1 }, http.StatusConflict},
		{"count 0", func(r *ShardRequest) { r.Index, r.Count = 0, 0 }, http.StatusBadRequest},
		{"index past count", func(r *ShardRequest) { r.Index = r.Count }, http.StatusBadRequest},
		{"negative index", func(r *ShardRequest) { r.Index = -1 }, http.StatusBadRequest},
		{"more shards than benchmarks", func(r *ShardRequest) { r.Count = reg.Len() + 1 }, http.StatusBadRequest},
	}
	for _, tc := range cases {
		req := newShardRequest(cfg, 0, 2, hash)
		tc.edit(&req)
		if got := shardStatus(t, c, req); got != tc.want {
			t.Errorf("%s: %d, want %d", tc.name, got, tc.want)
		}
	}
	resp, err := http.Get(ts.URL + "/shard")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /shard: %d, want 405", resp.StatusCode)
	}
}

// TestShardCountBounded posts a request for shard 0 of 2^31 — otherwise
// valid, with the right version and dataset hash — and pins that the
// worker answers 400 promptly, before planning anything: shard planning
// allocates per shard, so an unchecked count would let any caller make
// the worker allocate in proportion to a number it chose.
func TestShardCountBounded(t *testing.T) {
	reg := shardRegistry(t)
	cfg := shardConfig(t)
	ts := startWorker(t, reg)
	c := &Client{Base: ts.URL}
	hash, err := core.DatasetHash(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	req := newShardRequest(cfg, 0, 1<<31, hash)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	code := shardStatus(t, c, req)
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	if code != http.StatusBadRequest {
		t.Fatalf("count 2^31: %d, want 400", code)
	}
	if elapsed > 5*time.Second {
		t.Errorf("count 2^31 refused after %v, want a prompt refusal", elapsed)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 16<<20 {
		t.Errorf("refusing count 2^31 allocated %d bytes, want < 16 MiB", d)
	}
}

// TestShardReplyTamper takes a real /shard reply and flips each of its
// bytes in turn: core.PutShardArtifact must reject every damaged copy
// and store nothing, while the intact reply is accepted.
func TestShardReplyTamper(t *testing.T) {
	reg := shardRegistry(t)
	cfg := shardConfig(t)
	ts := startWorker(t, reg)
	cfg.Shard = core.ShardSpec{Index: 1, Count: 6}
	hash, err := core.DatasetHash(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	entry, err := (&Client{Base: ts.URL}).Shard(context.Background(), newShardRequest(cfg, 1, 6, hash))
	if err != nil {
		t.Fatal(err)
	}

	cfg.CacheDir = t.TempDir()
	bad := make([]byte, len(entry))
	for i := range entry {
		copy(bad, entry)
		bad[i] ^= 0xff
		if _, err := core.PutShardArtifact(reg, cfg, bad); err == nil {
			t.Fatalf("flipped byte %d of %d accepted", i, len(entry))
		}
	}
	if _, err := core.PutShardArtifact(reg, cfg, entry[:len(entry)-3]); err == nil {
		t.Fatal("truncated reply accepted")
	}
	stored := 0
	err = filepath.WalkDir(cfg.CacheDir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			stored++
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if stored != 0 {
		t.Fatalf("rejected replies left %d files in the cache", stored)
	}
	if _, err := core.PutShardArtifact(reg, cfg, entry); err != nil {
		t.Fatalf("intact reply rejected: %v", err)
	}
}
