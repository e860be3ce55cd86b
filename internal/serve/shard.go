package serve

// Worker side of distributed characterization: POST /shard computes one
// shard of a coordinator's dataset and answers with the shard's fcache
// entry, the same bytes the shard would occupy in a local cache. The
// request is refused with 409 unless the artifact schema version and the
// dataset fingerprint match the worker's own, and with 400 when its shard
// coordinates are out of range — before anything is planned, so a caller
// cannot make the worker allocate in proportion to a count it chose.
// Shards are computed in the handler: they bypass the job queue and the
// tenant quotas, and persist in the service cache across requests.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/core"
)

// maxShardRequestBytes bounds /shard request bodies: a ShardRequest is a
// handful of scalars, so anything larger is garbage.
const maxShardRequestBytes = 4096

// ShardRequest is the JSON body of POST /shard: shard Index of Count of
// the dataset the sampling parameters describe. ArtifactVersion and
// DatasetHash are the coordinator's core.ShardArtifactVersion and
// core.DatasetHash; a worker whose own differ refuses rather than
// compute a shard of a different dataset.
type ShardRequest struct {
	Index                    int   `json:"index"`
	Count                    int   `json:"count"`
	IntervalLength           int   `json:"interval"`
	SamplesPerBenchmark      int   `json:"samples"`
	MaxIntervalsPerBenchmark int   `json:"max_intervals"`
	SampleByBenchmark        bool  `json:"sample_by_benchmark"`
	Seed                     int64 `json:"seed"`
	// Workers is the compute parallelism, as JobSpec.Workers (0:
	// GOMAXPROCS). It never influences the shard's bytes.
	Workers         int    `json:"workers"`
	ArtifactVersion uint32 `json:"artifact_version"`
	DatasetHash     uint64 `json:"dataset_hash"`
}

// newShardRequest builds the request for shard (index, count) of a
// validated coordinator configuration.
func newShardRequest(cfg core.Config, index, count int, datasetHash uint64) ShardRequest {
	return ShardRequest{
		Index:                    index,
		Count:                    count,
		IntervalLength:           cfg.IntervalLength,
		SamplesPerBenchmark:      cfg.SamplesPerBenchmark,
		MaxIntervalsPerBenchmark: cfg.MaxIntervalsPerBenchmark,
		SampleByBenchmark:        cfg.SampleByBenchmark,
		Seed:                     cfg.Seed,
		Workers:                  cfg.Workers,
		ArtifactVersion:          core.ShardArtifactVersion(),
		DatasetHash:              datasetHash,
	}
}

// config reconstructs the worker-side pipeline configuration: the
// request's dataset parameters plus the worker's cache.
func (r *ShardRequest) config(cacheDir string) core.Config {
	return core.Config{
		IntervalLength:           r.IntervalLength,
		SamplesPerBenchmark:      r.SamplesPerBenchmark,
		MaxIntervalsPerBenchmark: r.MaxIntervalsPerBenchmark,
		SampleByBenchmark:        r.SampleByBenchmark,
		Seed:                     r.Seed,
		Workers:                  r.Workers,
		CacheDir:                 cacheDir,
		Shard:                    core.ShardSpec{Index: r.Index, Count: r.Count},
	}
}

// handleShard serves one shard computation.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	s.m.Counter("rpc.inflight").Add(1)
	defer s.m.Counter("rpc.inflight").Add(-1)
	body, err := io.ReadAll(io.LimitReader(r.Body, maxShardRequestBytes+1))
	if err != nil {
		http.Error(w, "read: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(body) > maxShardRequestBytes {
		s.refuse(w, http.StatusBadRequest, fmt.Errorf("serve: shard request over %d bytes", maxShardRequestBytes))
		return
	}
	var req ShardRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.refuse(w, http.StatusBadRequest, fmt.Errorf("serve: shard request: %w", err))
		return
	}
	if req.Count < 1 || req.Index < 0 || req.Index >= req.Count {
		s.refuse(w, http.StatusBadRequest, fmt.Errorf("serve: request for shard %d/%d", req.Index, req.Count))
		return
	}
	if req.ArtifactVersion != core.ShardArtifactVersion() {
		s.refuse(w, http.StatusConflict, fmt.Errorf(
			"serve: artifact version %#x, worker has %#x", req.ArtifactVersion, core.ShardArtifactVersion()))
		return
	}
	reg := s.cfg.Registry
	cfg := req.config(s.cfg.CacheDir)
	localHash, err := core.DatasetHash(reg, cfg)
	if err != nil {
		s.refuse(w, http.StatusBadRequest, err)
		return
	}
	if req.DatasetHash != localHash {
		s.refuse(w, http.StatusConflict, fmt.Errorf(
			"serve: dataset hash %#x, worker has %#x (registry or parameters diverge)", req.DatasetHash, localHash))
		return
	}
	if req.Count > reg.Len() {
		s.refuse(w, http.StatusBadRequest, fmt.Errorf(
			"serve: %d shards of a %d-benchmark registry (at most one shard per benchmark)", req.Count, reg.Len()))
		return
	}
	span := s.m.StartSpan("rpc.serve_shard").SetRows(req.Count).SetWorkers(req.Workers)
	entry, info, err := core.EncodeShard(reg, cfg, s.cfg.Logf)
	if err != nil {
		span.End()
		s.refuse(w, http.StatusInternalServerError, err)
		return
	}
	span.SetBytes(int64(len(entry))).End()
	s.m.Counter("rpc.served").Add(1)
	s.logf("serve: served shard %d/%d (%d unique intervals, %d bytes)",
		req.Index, req.Count, info.UniqueIntervals, len(entry))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(entry)))
	w.Write(entry)
}

// refuse reports a /shard error response and counts it.
func (s *Server) refuse(w http.ResponseWriter, code int, err error) {
	s.m.Counter("rpc.refused").Add(1)
	s.logf("serve: refused shard request (%d): %v", code, err)
	http.Error(w, err.Error(), code)
}
