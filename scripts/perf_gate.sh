#!/usr/bin/env bash
# Perf-regression gate: benchmarks the tier-1 hot paths (snapshot queries,
# one query message through a site's handler, wire serialization) on this
# checkout and on its merge base, then fails if any gated benchmark's median
# ns/op regressed more than THRESHOLD percent.
# Each side's test binaries are built once; the runs then alternate between
# base and head (one -test.count 1 pass per side, the order flipping every
# round), so drift in host speed lands on both sides alike instead of on
# whichever side happened to run second.
# benchstat, when installed, renders the statistical comparison into the
# artifact directory; the pass/fail verdict comes from cmd/benchgate, which
# needs nothing beyond the Go toolchain, so the gate runs identically in CI
# and in offline checkouts via `make perf-gate`.
#
# Tunables (environment): COUNT (rounds, i.e. runs per benchmark and side,
# default 6), BENCHTIME
# (per run, default 100ms), THRESHOLD (max median regression %, default 15),
# OUT (artifact directory, default bench_gate).
set -euo pipefail

cd "$(dirname "$0")/.."

COUNT="${COUNT:-6}"
BENCHTIME="${BENCHTIME:-100ms}"
THRESHOLD="${THRESHOLD:-15}"
OUT="${OUT:-bench_gate}"
PATTERN='BenchmarkSnapshotQuery|BenchmarkSiteQueryMessage|BenchmarkSerialize|BenchmarkAggregateCompute|BenchmarkReplicaApplyDelta|BenchmarkWALAppend|BenchmarkWALReplay'
ALL_PKGS=(. ./internal/site ./internal/xmldb ./internal/qeg ./internal/fragment ./internal/wal)

# pkgs_for <tree>: the subset of ALL_PKGS that exists in that checkout, so
# the gate keeps working while a benchmark's package is newer than the merge
# base (e.g. internal/wal, introduced with the durable store).
pkgs_for() {
    local tree=$1 p out=()
    for p in "${ALL_PKGS[@]}"; do
        if [ -d "$tree/${p#./}" ]; then
            out+=("$p")
        fi
    done
    printf '%s\n' "${out[@]}"
}

mkdir -p "$OUT"

base=$(git merge-base origin/main HEAD 2>/dev/null || git rev-parse --verify -q HEAD~1 || true)
if [ -z "$base" ]; then
    echo "perf-gate: no base commit to compare against; skipping"
    exit 0
fi
head=$(git rev-parse HEAD)
if [ "$base" = "$head" ] && git diff --quiet; then
    echo "perf-gate: HEAD is the base commit and the tree is clean; nothing to compare"
    exit 0
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
wt="$tmp/base"
mkdir -p "$wt"
git archive "$base" | tar -x -C "$wt"

# build_side <side> <tree>: compile one test binary per benchmarked package
# of the tree into $tmp/<side>/, recording "<package dir> <binary>" pairs.
build_side() {
    local side=$1 tree=$2 p bin
    mkdir -p "$tmp/$side"
    : >"$tmp/$side.list"
    while read -r p; do
        bin="$tmp/$side/$(echo "${p#./}" | tr '/.' '__').test"
        (cd "$tree" && go test -c -o "$bin" "$p")
        echo "$tree/${p#./} $bin" >>"$tmp/$side.list"
    done < <(pkgs_for "$tree")
}

# run_side <side>: one pass of every benchmark binary of that side, each run
# from its package directory as `go test` would.
run_side() {
    local dir bin
    while read -r dir bin; do
        (cd "$dir" && "$bin" -test.run '^$' -test.bench "$PATTERN" \
            -test.count 1 -test.benchtime "$BENCHTIME" -test.timeout 10m)
    done <"$tmp/$1.list"
}

echo "perf-gate: building test binaries for base ${base} and HEAD"
build_side base "$wt"
build_side head "$PWD"
: >"$OUT/base.txt"
: >"$OUT/head.txt"
for ((i = 1; i <= COUNT; i++)); do
    echo "perf-gate: round $i/$COUNT (benchtime=$BENCHTIME)"
    if ((i % 2)); then order="base head"; else order="head base"; fi
    for side in $order; do
        run_side "$side" >>"$OUT/$side.txt"
    done
done

if command -v benchstat >/dev/null 2>&1; then
    benchstat "$OUT/base.txt" "$OUT/head.txt" | tee "$OUT/benchstat.txt"
else
    echo "perf-gate: benchstat not installed; verdict from cmd/benchgate only"
fi

go run ./cmd/benchgate -old "$OUT/base.txt" -new "$OUT/head.txt" \
    -threshold "$THRESHOLD" -require 'BenchmarkSnapshotQuery,BenchmarkSerialize' \
    | tee "$OUT/verdict.txt"
