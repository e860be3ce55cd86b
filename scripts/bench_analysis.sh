#!/bin/sh
# Benchmark the parallelized analysis stages and record the numbers in
# BENCH_analysis.json at the repo root, plus an instrumented quick-pipeline
# run report (stage spans + cache/worker counters) in
# BENCH_analysis_report.json beside it.
#
# Usage: scripts/bench_analysis.sh [benchtime] [layer-benchtime]
#
# The recorded benchmarks are the parallel kernels introduced with the
# worker-pool refactor (k-means restarts/assignment, GA fitness batches,
# SelectK sweeps) plus the end-to-end pipeline and the GA sweep figure,
# each at workers=1 and workers=GOMAXPROCS (the sub-benchmarks collapse
# to a single workers=1 entry on single-core machines), and the
# measurement kernel itself: BenchmarkCharacterize (cold generate+measure,
# ns/instruction and instructions/s) and BenchmarkCharacterizeCached (the
# same run served entirely from a warm interval-vector cache), and
# BenchmarkCharacterizeAppend, which prices a one-benchmark append over a
# cache warmed by the other 76 against the cold full-roster control as an
# interleaved pair. BenchmarkFig1GASweep builds a fresh Env per iteration,
# so it prices the whole figure, characterization included, as a user
# pays for it. BenchmarkCorpusQuery prices one corpus query. All of them
# produce byte-identical results at any worker count and cache state, so
# the comparison is pure wall-clock.
#
# The per-layer benchmarks of the characterization kernel run separately
# at the time-based layer-benchtime (default 1s), each reporting ns/instr
# over default-length intervals: TraceGeneration (the generator alone),
# MICACharacterization (generate + RecordBatch + Vector), PPMGroup (the
# four predictor groups, each replaying a whole interval's branch
# outcomes in one RecordAll, as the analyzer does at Vector; for lbm,
# grappa and astar) and ILPAnalyzer (the ILP windows' RecordBatch).
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${1:-2x}"
LAYER_BENCHTIME="${2:-1s}"
OUT="BENCH_analysis.json"
RAW="$(mktemp)"
PREV="$(mktemp)"
trap 'rm -f "$RAW" "$PREV"' EXIT

# Keep the previous recorded numbers so the refresh can print paired
# old/new deltas at the end.
[ -f "$OUT" ] && cp "$OUT" "$PREV"

go test -run '^$' \
    -bench 'BenchmarkKMeansParallel|BenchmarkGAFitnessParallel|BenchmarkSelectKSweep|BenchmarkFullPipeline$|BenchmarkFig1GASweep|BenchmarkCharacterize$|BenchmarkCharacterizeCached$|BenchmarkCharacterizeAppend|BenchmarkCorpusQuery' \
    -benchtime "$BENCHTIME" -benchmem . | tee "$RAW"
go test -run '^$' \
    -bench 'BenchmarkTraceGeneration$|BenchmarkMICACharacterization|BenchmarkPPMGroup$|BenchmarkILPAnalyzer$' \
    -benchtime "$LAYER_BENCHTIME" -benchmem . | tee -a "$RAW"

awk -v benchtime="$BENCHTIME" '
/^goos:/    { goos = $2 }
/^goarch:/  { goarch = $2 }
/^cpu:/     { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)  # strip the -GOMAXPROCS suffix
    n = $2
    ns = $3
    extras = ""
    # Fields arrive as value/unit pairs after "ns/op".
    for (i = 5; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        gsub(/"/, "", unit)
        extras = extras sprintf(", \"%s\": %s", unit, $i)
    }
    rows[++count] = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s%s}",
                            name, n, ns, extras)
}
END {
    printf "{\n"
    printf "  \"goos\": \"%s\",\n", goos
    printf "  \"goarch\": \"%s\",\n", goarch
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"notes\": \"BenchmarkCharacterize is the cold generate+measure kernel; BenchmarkCharacterizeCached is the same run served warm from the interval-vector cache, each vector read straight into the dataset. Against the pre-kernel tree (commit ff7388c), interleaved paired binaries on this shared vCPU measured: KMeansParallel/workers=1 paired-median 3.3x (range 3.1-3.4x; AVX2 column-scan nearest-center kernel + Hamerly-style bounds + pooled scratch). BenchmarkCharacterizeAppend/{cold,warm} is an interleaved pair: warm restores an N-1 baseline cache off the clock, then times a plain full-roster run over it; the reported cached-vectors proves the baseline vectors came from the cache. BenchmarkFig1GASweep builds a fresh Env per iteration, so it prices the whole figure, characterization included, as phasechar fig1 costs a user. The per-layer kernel benchmarks (TraceGeneration, MICACharacterization, PPMGroup, ILPAnalyzer) run at a time-based benchtime and report ns/instr over default-length (20,000-instruction) intervals, resetting per interval. PPMGroup replays the conditional branches of each interval in one RecordAll per group, as the analyzer stages them and replays them at Vector; GAg and PAg use dense context-class counters, GAs and PAs the hashed order-major slab. All paths stay byte-identical at every worker count; the asm and generic column kernels are bit-identical by construction (serial per-center sums, lanes across centers).\",\n"
    printf "  \"benchmarks\": [\n"
    for (i = 1; i <= count; i++)
        printf "%s%s\n", rows[i], (i < count ? "," : "")
    printf "  ]\n"
    printf "}\n"
}' "$RAW" > "$OUT"

echo "wrote $OUT"

# Paired old/new deltas against the previously recorded numbers: one
# line per benchmark present in both files. Ratios > 1 are speedups.
# These are same-machine but not interleaved runs — treat them as a
# smoke signal and use interleaved paired binaries for publishable
# comparisons (see the notes field).
if [ -s "$PREV" ]; then
    echo "== deltas vs previous $OUT"
    awk '
    /"name":/ {
        name = $0; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
        ns = $0; sub(/.*"ns_per_op": /, "", ns); sub(/[^0-9].*/, "", ns)
        if (NR == FNR) { old[name] = ns }
        else if (name in old && ns > 0)
            printf "  %-45s %14.0f -> %14.0f ns/op  (%.2fx)\n", name, old[name], ns, old[name] / ns
    }' "$PREV" "$OUT"
fi

# Capture a run report for the same machine: where the quick pipeline's
# wall time actually goes (per-stage spans, worker-pool and cache
# counters). The pipeline output itself is discarded — only the report
# matters here.
REPORT="BENCH_analysis_report.json"
go run ./cmd/phasechar -quick -quiet -report "$REPORT" export > /dev/null
echo "wrote $REPORT"
