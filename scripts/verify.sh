#!/bin/sh
# Repo verification gate: build, vet, the full test suite, vet and tests
# of the perfbench module, the race detector over every package, the
# corpus-snapshot, service-retention and concurrent-run tests repeated under
# the race detector, short fuzz runs over every binary decoder and the PPM
# group replay, the shard-merge/resume
# equivalence check on the quick pipeline, the warm-cache append
# byte-identity gate, the distributed loopback gate (networked workers
# with injected faults and a mid-run worker kill), the workload-model
# round-trip gate (the roster exported as declarative model files and
# reloaded runs byte-identically, and the checked-in emerging-era suites
# load and analyze), and the characterization-service loopback gate
# (jobs over HTTP byte-identical to one-shot exports — including jobs
# shipping inline tenant models — cold and hot-warm, with backpressure
# and latency histograms), and the phase-corpus gate (a six-suite corpus
# built through the CLI answers queries byte-identically to the
# checked-in goldens, across worker counts, across compaction, and over
# the service front door). Run before every merge.
set -eu

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
WORKER_PIDS=""
cleanup() {
  # Force-kill and reap before removing the tree: a gracefully draining
  # service would otherwise still be writing cache files under $tmp
  # while rm -rf walks it.
  if [ -n "$WORKER_PIDS" ]; then
    # shellcheck disable=SC2086
    kill -9 $WORKER_PIDS 2>/dev/null || true
    # shellcheck disable=SC2086
    wait $WORKER_PIDS 2>/dev/null || true
  fi
  rm -rf "$tmp"
}
trap cleanup EXIT

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== go test ./... (tier-1)"
go test ./...

echo "== perfbench: vet and test (its own module)"
# The benchmark is a separate module, so ./... above never builds it; its
# layer replays call the ppm, ilp, mica and trace APIs directly.
(cd perfbench && go vet ./... && go test .)

echo "== go test -race ./..."
go test -race -count=1 ./...

echo "== corpus snapshot, service retention, concurrent-run and PPM class-map concurrency (-race -count=10)"
# Lock-free corpus reads, bounded job retention and one compute per
# stage across concurrent identical runs are interleaving properties: a
# parked scan that must not block writers or change its answer, racing
# probed queries on the lazy IVF build, two handles on one directory,
# the service soak, four resumed runs released together over one cache,
# and the PPM context-class maps that concurrently built analyzers share. Repeat them so a rare schedule has ten chances to show.
go test -race -count=10 \
  -run '^(TestParkedScanDoesNotBlock|TestConcurrentProbedQueries|TestHandlesShareOneDirectory)$' ./internal/corpus/
go test -race -count=10 -run '^TestSoakBoundedRetention$' ./internal/serve/
go test -race -count=10 -run '^TestConcurrentResumeComputesEachStageOnce$' ./internal/core/
go test -race -count=10 -run '^TestDenseGroupsConcurrentConstruction$' ./internal/mica/ppm/

echo "== distributed shard tests -race at pinned worker counts"
# The distributed invariant must hold at any compute parallelism; pin it
# at serial and at 4 workers explicitly. SHARD_TEST_WORKERS sets both the
# coordinator's parallelism and the one it sends in every /shard request.
SHARD_TESTS='^Test(FaultMatrix|WorkerDeath|DatasetMismatch|Distribute|JitterSeed|FaultSpec|Shard|ServeHealthz|ServeGraceful|ServeListenerError)'
SHARD_TEST_WORKERS=1 go test -race -count=1 -run "$SHARD_TESTS" ./internal/serve/
SHARD_TEST_WORKERS=4 go test -race -count=1 -run "$SHARD_TESTS" ./internal/serve/

echo "== fuzz targets (${FUZZ_BUDGET:-2s} each)"
# Every decoder that reads bytes from disk or the network: errors, never
# panics. FuzzGroupRecordAll holds the PPM groups' order-major replay, in
# both counter layouts, to independent reference predictors. FUZZ_BUDGET
# raises the per-target budget for deeper local runs.
while read -r target pkg; do
  go test -run='^$' -fuzz="^${target}\$" -fuzztime="${FUZZ_BUDGET:-2s}" "$pkg" > /dev/null
done <<'EOF'
FuzzDecodeMatrix ./internal/stats/
FuzzDecodePCA ./internal/stats/
FuzzDecodeResult ./internal/cluster/
FuzzShardArtifact ./internal/core/
FuzzSummaryArtifact ./internal/core/
FuzzTimelineArtifact ./internal/core/
FuzzEntry ./internal/fcache/
FuzzDecodeModels ./internal/bench/
FuzzCorpusSegment ./internal/corpus/
FuzzCorpusManifest ./internal/corpus/
FuzzGroupRecordAll ./internal/mica/ppm/
EOF

echo "== allocation gate (BenchmarkCharacterizeCached)"
# The cache-warm characterization path is pinned to a per-op allocation
# ceiling: vectors are read through stack buffers straight into the
# dataset, so a warm run makes tens of allocs/op, and a regression back
# toward the historical ~7k allocs/op (several per cached vector) should
# fail the gate loudly. CHAR_CACHED_ALLOC_CEILING overrides the ceiling (e.g. for
# instrumented builds).
ALLOC_CEILING="${CHAR_CACHED_ALLOC_CEILING:-512}"
allocs="$(go test -run '^$' -bench 'BenchmarkCharacterizeCached$' -benchtime 2x -benchmem . |
  awk '/^BenchmarkCharacterizeCached/ { for (i = 1; i < NF; i++) if ($(i + 1) == "allocs/op") print $i }')"
if [ -z "$allocs" ]; then
  echo "allocation gate: BenchmarkCharacterizeCached produced no allocs/op figure" >&2
  exit 1
fi
if [ "$allocs" -gt "$ALLOC_CEILING" ]; then
  echo "allocation gate: BenchmarkCharacterizeCached allocates $allocs/op > ceiling $ALLOC_CEILING" >&2
  exit 1
fi
echo "allocation gate: $allocs allocs/op <= $ALLOC_CEILING"

echo "== shard-merge + resume equivalence (quick pipeline)"
# The engine's load-bearing invariant, end to end through the CLI: a
# 3-shard characterization merged by the analysis run, and a resumed
# rerun over the same cache, must both export byte-identically to the
# plain single-process run.
go build -o "$tmp/phasechar" ./cmd/phasechar
"$tmp/phasechar" -quick -quiet export > "$tmp/single.json"
for i in 0 1 2; do
  "$tmp/phasechar" -quick -quiet -cache "$tmp/cache" -shard "$i/3" shard > /dev/null
done
"$tmp/phasechar" -quick -quiet -cache "$tmp/cache" -merge 3 export > "$tmp/merged.json"
cmp "$tmp/single.json" "$tmp/merged.json"
"$tmp/phasechar" -quick -quiet -cache "$tmp/cache" -resume export > "$tmp/resumed.json"
cmp "$tmp/single.json" "$tmp/resumed.json"

echo "== workload-model round-trip gate"
# Suites as data, end to end through the CLI: the built-in roster
# exported as a declarative model file and reloaded via -models must run
# byte-identically to the built-in run — the codec loses nothing. The
# checked-in emerging-era suites must load, validate, and surface in the
# cross-era experiment.
"$tmp/phasechar" -export-models > "$tmp/models_std.json"
"$tmp/phasechar" -quick -quiet -models "$tmp/models_std.json" export > "$tmp/models_reloaded.json"
cmp "$tmp/single.json" "$tmp/models_reloaded.json"
"$tmp/phasechar" -quick -quiet -models models -clusters 80 -prominent 30 crossera > "$tmp/crossera.out"
if ! grep -q "BigData" "$tmp/crossera.out"; then
  echo "model gate: crossera output does not mention the BigData suite" >&2
  cat "$tmp/crossera.out" >&2
  exit 1
fi

echo "== warm-cache append gate (quick pipeline)"
# Appending suites to a characterization reuses the interval-vector
# cache, end to end through the CLI: six suites exported into a fresh
# cache, then the full roster over the same cache, must export
# byte-identically to the plain single-process run — and the run report
# must prove the full-roster run read cached vectors (rather than
# silently recomputing cold).
"$tmp/phasechar" -quick -quiet -cache "$tmp/acache" \
  -suites BioPerf,BMW,MediaBenchII,SPECint2000,SPECfp2000,SPECint2006 export > /dev/null
"$tmp/phasechar" -quick -quiet -cache "$tmp/acache" \
  -report "$tmp/append_report.json" export > "$tmp/append.json"
cmp "$tmp/single.json" "$tmp/append.json"
python3 - "$tmp/append_report.json" <<'EOF'
import json, sys

hits = json.load(open(sys.argv[1]))["counters"].get("fcache.hits.vector", 0)
if hits <= 0:
    sys.exit("append gate: the full-roster run read no cached interval vectors")
print(f"append gate: {hits} interval vectors read from the warm cache")
EOF

echo "== distributed loopback gate (3 workers, injected faults, mid-run kill)"
# The same invariant across real process and network boundaries: three
# loopback characterization services as shard workers (POST /shard), a
# fault schedule (a 503 then a corrupted entry on worker 0, injected
# latency on worker 2), and worker 1 killed while the run is in flight.
# The coordinator must retry, reassign and degrade as needed — and the
# export must still be byte-identical.
for i in 0 1 2; do
  "$tmp/phasechar" -quiet -cache "$tmp/wcache$i" -addr 127.0.0.1:0 service > "$tmp/worker$i.out" 2>&1 &
  WORKER_PIDS="$WORKER_PIDS $!"
done
addrs=""
for i in 0 1 2; do
  addr=""
  tries=0
  while [ -z "$addr" ]; do
    addr="$(sed -n 's|^phasechar: characterization service at http://||p' "$tmp/worker$i.out")"
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
      echo "worker $i never reported its address" >&2
      cat "$tmp/worker$i.out" >&2
      exit 1
    fi
    [ -z "$addr" ] && sleep 0.1
  done
  addrs="$addrs,$addr"
done
addrs="${addrs#,}"
victim="$(echo "$WORKER_PIDS" | awk '{print $2}')"
( sleep 1; kill "$victim" 2>/dev/null ) &
"$tmp/phasechar" -quick -quiet -cache "$tmp/dcache" \
  -workers-addr "$addrs" -merge 6 -rpc-retries 2 \
  -rpc-faults "0:5xx,corrupt;2:delay" \
  -report distributed_report.json export > "$tmp/distributed.json"
cmp "$tmp/single.json" "$tmp/distributed.json"

echo "== characterization service loopback gate"
# The service's contract, end to end through the CLI: a job submitted
# over HTTP must export byte-identically to the equivalent one-shot run
# — cold, through an append over the warm cache, and again hot-warm out
# of the in-memory tier — while the front door sheds load with 429s at queue
# capacity and reports per-endpoint latency percentiles in /metrics.
six="BioPerf,BMW,MediaBenchII,SPECint2000,SPECfp2000,SPECint2006"
"$tmp/phasechar" -quick -quiet -suites "$six" export > "$tmp/six.json"
"$tmp/phasechar" -cache "$tmp/scache" -addr 127.0.0.1:0 \
  -queue-depth 1 -job-workers 1 service > "$tmp/service.out" 2>&1 &
WORKER_PIDS="$WORKER_PIDS $!"
saddr=""
tries=0
while [ -z "$saddr" ]; do
  saddr="$(sed -n 's|^phasechar: characterization service at http://||p' "$tmp/service.out")"
  tries=$((tries + 1))
  if [ "$tries" -gt 100 ]; then
    echo "service never reported its address" >&2
    cat "$tmp/service.out" >&2
    exit 1
  fi
  [ -z "$saddr" ] && sleep 0.1
done
# Cold six-suite job (warms the server-side cache).
"$tmp/phasechar" -server "http://$saddr" -tenant gate -quick -quiet \
  -suites "$six" submit > "$tmp/svc_six.json"
cmp "$tmp/six.json" "$tmp/svc_six.json"
# Append over the full roster, through the front door and the warm cache.
"$tmp/phasechar" -server "http://$saddr" -tenant gate -quick -quiet \
  submit > "$tmp/svc_full.json"
cmp "$tmp/single.json" "$tmp/svc_full.json"
# Hot-warm repeat: same job again, answered from cached artifacts (and
# the in-memory tier) — still byte-identical.
"$tmp/phasechar" -server "http://$saddr" -tenant gate -quick -quiet \
  -suites "$six" submit > "$tmp/svc_six_warm.json"
cmp "$tmp/six.json" "$tmp/svc_six_warm.json"
# Seed 0 is a valid seed, but a job spec reads it as the default (1):
# the submit target must refuse it, with a reason, rather than silently
# running seed 1.
if "$tmp/phasechar" -server "http://$saddr" -quick -quiet -seed 0 submit \
  > /dev/null 2> "$tmp/seed0.err"; then
  echo "service gate: '-seed 0 submit' exited zero" >&2
  exit 1
fi
if ! grep -q "seed 0" "$tmp/seed0.err"; then
  echo "service gate: '-seed 0 submit' failed without saying why:" >&2
  cat "$tmp/seed0.err" >&2
  exit 1
fi
# Inline tenant models: a job shipping the emerging-era suite inline
# must export byte-identically to the same roster run locally via
# -models (invalid models are covered by the serve tests: 400 at submit).
"$tmp/phasechar" -quick -quiet -models models -suites BigData \
  -clusters 40 -prominent 20 export > "$tmp/bigdata.json"
"$tmp/phasechar" -server "http://$saddr" -tenant gate -quick -quiet \
  -models models -suites BigData -clusters 40 -prominent 20 submit > "$tmp/svc_bigdata.json"
cmp "$tmp/bigdata.json" "$tmp/svc_bigdata.json"
# Saturation: with one worker pinned by a cold job and one queue slot,
# a burst of submissions must see at least one 429.
flood_codes=""
for i in 1 2 3 4 5 6; do
  flood_codes="$flood_codes $(curl -s -o /dev/null -w '%{http_code}' \
    -X POST -H 'X-Tenant: flood' -H 'Content-Type: application/json' \
    -d '{"preset":"quick","seed":7}' "http://$saddr/jobs")"
done
case "$flood_codes" in
  *429*) echo "service gate: backpressure observed ($flood_codes)" ;;
  *)
    echo "service gate: no 429 under queue saturation ($flood_codes)" >&2
    exit 1
    ;;
esac
curl -s "http://$saddr/metrics" > "$tmp/service_metrics.json"
python3 - "$tmp/service_metrics.json" <<'EOF'
import json, sys

rep = json.load(open(sys.argv[1]))
c = rep["counters"]
assert c.get("fcache.hot_hits", 0) > 0, f"no hot-tier hits in report: {c}"
assert c.get("serve.admission_rejects", 0) > 0, "no admission rejects recorded"
assert c.get("serve.jobs_done", 0) >= 3, f"jobs_done = {c.get('serve.jobs_done')}"
h = rep.get("histograms", {})
post = h.get("serve.http.post_jobs")
assert post and post["count"] > 0, f"missing post_jobs histogram: {sorted(h)}"
for k in ("p50_seconds", "p95_seconds", "p99_seconds"):
    assert k in post, f"{k} missing from histogram summary"
assert post["p50_seconds"] <= post["p95_seconds"] <= post["p99_seconds"] <= post["max_seconds"] + 1e-12
print("service gate: hot hits =", c["fcache.hot_hits"],
      "| post_jobs p50/p95/p99 =", post["p50_seconds"], post["p95_seconds"], post["p99_seconds"])
EOF

echo "== phase corpus gate (six-suite corpus, online queries)"
# The corpus contract end to end: a six-suite quick run ingested into a
# fresh corpus must answer queries byte-identically to the checked-in
# goldens; re-ingesting the same run is a no-op; a corpus built at
# -workers 1 answers identically; compaction changes no answer; the
# corpus.* counters surface in the run report; and the service's
# POST /corpus/query returns the same bytes as the CLI.
corpus="$tmp/corpus"
"$tmp/phasechar" -quick -quiet -suites "$six" -corpus "$corpus" \
  -report "$tmp/corpus_report.json" export > /dev/null
"$tmp/phasechar" -corpus "$corpus" query stats > "$tmp/corpus_stats.json"
cmp scripts/testdata/corpus_six_stats.json "$tmp/corpus_stats.json"
"$tmp/phasechar" -corpus "$corpus" -topk 3 query nearest 'BioPerf/blast#3' > "$tmp/corpus_near.json"
cmp scripts/testdata/corpus_six_nearest.json "$tmp/corpus_near.json"
# Idempotent re-ingest: an equivalent rerun adds nothing.
"$tmp/phasechar" -quick -quiet -suites "$six" -corpus "$corpus" export > /dev/null
"$tmp/phasechar" -corpus "$corpus" query stats | cmp scripts/testdata/corpus_six_stats.json -
# Worker-count invariance: the corpus is the same corpus at any -workers.
"$tmp/phasechar" -quick -quiet -suites "$six" -workers 1 -corpus "$tmp/corpus_w1" export > /dev/null
"$tmp/phasechar" -corpus "$tmp/corpus_w1" -topk 3 query nearest 'BioPerf/blast#3' |
  cmp scripts/testdata/corpus_six_nearest.json -
# A second ingest (the emerging-era suite) then compaction: two segments
# merge into one and every answer survives byte-identically.
"$tmp/phasechar" -quick -quiet -models models -suites BigData \
  -clusters 40 -prominent 20 -corpus "$corpus" export > /dev/null
"$tmp/phasechar" -corpus "$corpus" -topk 5 query nearest 'BioPerf/blast#3' > "$tmp/corpus_pre_near.json"
"$tmp/phasechar" -corpus "$corpus" query uniqueness BioPerf/blast > "$tmp/corpus_pre_uniq.json"
"$tmp/phasechar" -corpus "$corpus" query novelty BigData > "$tmp/corpus_pre_nov.json"
"$tmp/phasechar" -corpus "$corpus" compact
"$tmp/phasechar" -corpus "$corpus" -topk 5 query nearest 'BioPerf/blast#3' | cmp "$tmp/corpus_pre_near.json" -
"$tmp/phasechar" -corpus "$corpus" query uniqueness BioPerf/blast | cmp "$tmp/corpus_pre_uniq.json" -
"$tmp/phasechar" -corpus "$corpus" query novelty BigData | cmp "$tmp/corpus_pre_nov.json" -
# The run report carries the corpus counters.
python3 - "$tmp/corpus_report.json" <<'EOF'
import json, sys

c = json.load(open(sys.argv[1]))["counters"]
assert c.get("corpus.ingested", 0) > 0, f"no corpus.ingested in report: {sorted(c)}"
assert c.get("corpus.segments", 0) == 1, f"corpus.segments = {c.get('corpus.segments')}"
print("corpus gate: ingested", c["corpus.ingested"], "records into", c["corpus.segments"], "segment")
EOF
# The service answers the same question with the same bytes.
"$tmp/phasechar" -cache "$tmp/qcache" -corpus "$corpus" -addr 127.0.0.1:0 \
  service > "$tmp/corpus_service.out" 2>&1 &
WORKER_PIDS="$WORKER_PIDS $!"
qaddr=""
tries=0
while [ -z "$qaddr" ]; do
  qaddr="$(sed -n 's|^phasechar: characterization service at http://||p' "$tmp/corpus_service.out")"
  tries=$((tries + 1))
  if [ "$tries" -gt 100 ]; then
    echo "corpus service never reported its address" >&2
    cat "$tmp/corpus_service.out" >&2
    exit 1
  fi
  [ -z "$qaddr" ] && sleep 0.1
done
curl -s -X POST -H 'Content-Type: application/json' \
  -d '{"op":"nearest","ref":"BioPerf/blast#3","k":5}' \
  "http://$qaddr/corpus/query" | cmp "$tmp/corpus_pre_near.json" -
echo "corpus gate: CLI and service answers byte-identical"

echo "verify: OK"
