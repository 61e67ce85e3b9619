#!/usr/bin/env bash
# The whole benchmark in one command: builds release, runs every
# workload with tracing off (end-to-end metrics) and on (per-layer
# table), checks the outputs, prints every metric by name with its unit
# and writes <out>/results.jsonl plus <out>/trace.<workload>.json.
#
#   benchmark/run.sh [--seed N] [--runs R] [--out DIR]
#
# Every run measures for the run_seconds of BENCHMARK.json. --runs R
# repeats the end-to-end run of every workload R times, so that `compare`
# has a median and quartiles across runs: one run yields one figure.
#
# Compare two sets with
#   <target>/release/lt-benchmark compare A/results.jsonl B/results.jsonl
set -euo pipefail
cd "$(dirname "$0")/.."

seed=70823
runs=1
out=benchmark/out
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed=$2 ;;
        --runs) runs=$2 ;;
        --out) out=$2 ;;
        *) echo "usage: benchmark/run.sh [--seed N] [--runs R] [--out DIR]" >&2; exit 2 ;;
    esac
    shift 2
done

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin=${CARGO_TARGET_DIR:-benchmark/target}/release/lt-benchmark

mkdir -p "$out"
: > "$out/results.jsonl"
for workload in t2t_cnn storm_deeplob multi_translob ingest_ab backtest_grid; do
    for _ in $(seq "$runs"); do
        "$bin" --workload "$workload" --seed "$seed" --trace 0 --out "$out" | sed '$d'
    done
    "$bin" --workload "$workload" --seed "$seed" --trace 1 --out "$out" | sed '$d'
done

echo "results: $out/results.jsonl"
if grep -q '"correct": false' "$out/results.jsonl"; then
    echo "an output check failed" >&2
    exit 1
fi
