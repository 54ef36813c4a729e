#!/usr/bin/env bash
# Runs the headline benchmark suites and writes each one's results as
# machine-readable JSON, one record per benchmark with every reported
# metric — the perf trajectory lives in those files so runs can be compared
# across commits:
#
#   serve  B-KEY / B-STREAM / B-OPT / B-SERVE        -> BENCH_serve.json
#   fault  B-FAULT (replicated star under injected   -> BENCH_fault.json
#          faults: scenario latency percentiles,
#          hedge/retry fire rates, deadline bound)
#   shard  B-SHARD (scatter-gather federation at      -> BENCH_shard.json
#          1/2/4/8 shards vs single-endpoint:
#          latency, cells-per-shard, key pruning)
#   store  B-STORE (write-ahead log replay MB/s,      -> BENCH_store.json
#          logged append overhead vs in-memory)
#
# Every suite must produce at least one JSON record; a suite whose pattern
# matches nothing (a renamed benchmark, a build failure swallowed by tee)
# fails the run loudly instead of silently dropping the trajectory. Each
# file leads with a {"host": ...} record (go version, OS/arch, NumCPU,
# GOMAXPROCS) so trajectories compare like with like across machines.
#
# Usage:
#   scripts/bench.sh [suite ...]        # default: all suites
#   BENCHTIME=2s scripts/bench.sh       # real measurement run
#   BENCHTIME=1x scripts/bench.sh fault # smoke one suite (default: 100x)
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime=${BENCHTIME:-100x}

suite_pattern() {
    case "$1" in
    serve) echo 'BenchmarkKeyRepresentation|BenchmarkStreaming|BenchmarkFederatedPushdown|BenchmarkFederatedJoinOrder|BenchmarkServe' ;;
    fault) echo 'BenchmarkFaultScenarios|BenchmarkFaultDeadline' ;;
    shard) echo 'BenchmarkShardScatterGather|BenchmarkShardPrunedRetrieve' ;;
    store) echo 'BenchmarkStoreReplay|BenchmarkStoreAppend' ;;
    *) echo "ERROR: unknown suite '$1' (want: serve fault shard store)" >&2; return 1 ;;
    esac
}

suite_out() {
    case "$1" in
    serve) echo BENCH_serve.json ;;
    fault) echo BENCH_fault.json ;;
    shard) echo BENCH_shard.json ;;
    store) echo BENCH_store.json ;;
    esac
}

# host_record renders the machine context every BENCH file leads with, so a
# perf trajectory is never compared across unlike hosts unnoticed.
host_record() {
    local gover goos goarch ncpu maxprocs
    gover=$(go env GOVERSION)
    goos=$(go env GOOS)
    goarch=$(go env GOARCH)
    ncpu=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)
    maxprocs=${GOMAXPROCS:-$ncpu}
    printf '{"host": {"go": "%s", "os": "%s", "arch": "%s", "numcpu": %s, "gomaxprocs": %s}}' \
        "$gover" "$goos" "$goarch" "$ncpu" "$maxprocs"
}

# Benchmark output lines look like:
#   BenchmarkName/sub=1-8   300   4039387 ns/op   2010 p50-µs   247.6 qps
# i.e. name, iterations, then value/unit pairs. Emit one JSON object each.
to_json() {
    awk -v host="$(host_record)" '
    BEGIN { print "["; printf("  %s", host); first = 0 }
    /^Benchmark/ {
        name = $1; sub(/-[0-9]+$/, "", name)
        if (!first) printf(",\n"); first = 0
        printf("  {\"benchmark\": \"%s\", \"iterations\": %s", name, $2)
        for (i = 3; i + 1 <= NF; i += 2) {
            unit = $(i + 1)
            gsub(/"/, "", unit)
            printf(", \"%s\": %s", unit, $i)
        }
        printf("}")
    }
    END { print "\n]" }
    '
}

run_suite() {
    local suite=$1 pattern out raw count
    # `|| return` so a bad suite name fails fast even though the caller's
    # `run_suite X || failed=1` context suppresses errexit in here.
    pattern=$(suite_pattern "$suite") || return 1
    out=$(suite_out "$suite")
    if [ -z "$out" ]; then
        echo "ERROR: no output file mapped for suite '$suite'" >&2
        return 1
    fi
    raw=$(mktemp)
    trap 'rm -f "$raw"' RETURN
    echo "== suite $suite: running ($pattern) with -benchtime=$benchtime ..." >&2
    # Explicit status check: the caller's `run_suite X || failed=1` context
    # suppresses errexit in here, and a benchmark that b.Fatals after
    # emitting some records would otherwise "pass" with truncated JSON
    # (pipefail, set at the top, surfaces go test's failure through tee).
    if ! go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -short -timeout 30m . | tee "$raw" >&2; then
        echo "ERROR: suite $suite benchmark run failed" >&2
        return 1
    fi
    to_json <"$raw" >"$out"
    count=$(grep -c '"benchmark"' "$out" || true)
    if [ "$count" -eq 0 ]; then
        echo "ERROR: suite $suite produced no benchmark records ($out is empty)" >&2
        return 1
    fi
    echo "== suite $suite: wrote $count benchmark records to $out" >&2
}

suites=("$@")
if [ ${#suites[@]} -eq 0 ]; then
    suites=(serve fault shard store)
fi
failed=0
for s in "${suites[@]}"; do
    run_suite "$s" || failed=1
done
if [ "$failed" -ne 0 ]; then
    echo "ERROR: at least one suite produced no JSON — fix the pattern or the benchmarks" >&2
    exit 1
fi
