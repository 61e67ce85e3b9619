#!/usr/bin/env bash
# CI gate: formatting, lints, tier-1 build+test, the release-mode
# correctness gates, and the kernel micro-bench floor. Absolute timings
# are the benchmark's job (BENCHMARK.json), not this script's.
#
#   ./scripts/check.sh            # everything
#   ./scripts/check.sh --fast     # skip the kernel micro-bench floor
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "== cargo fmt --check =="
cargo fmt --check

echo "== reachability: no source file whose pub items nothing names =="
./scripts/islands.sh

echo "== own nonlinearities: no libm transcendental in the inference ops' non-test code =="
# The per-query path takes exp/tanh/sigmoid from lt_dnn::math, so no answer
# depends on the host's libm. sqrt and powi(2) are exact IEEE operations.
libm=0
for f in crates/dnn/src/ops/*.rs crates/dnn/src/kernels.rs crates/dnn/src/math.rs; do
    if sed '/^[[:space:]]*#\[cfg(test)\]/,$d' "$f" \
        | grep -nE '\.(exp|exp_m1|tanh|ln|powf|sin|cos)\('; then
        echo "libm call in $f (use lt_dnn::math)"
        libm=1
    fi
done
[[ "$libm" == "0" ]]

echo "== the back-test stages no tensor: no feature window, normalization or offload view in lt-sim's non-test code =="
# The simulator queues TicketQueue tickets only; staging feature windows is
# the wall-clock traders' job, and the offload views are the benchmark's.
staged=0
for f in $(find crates/sim/src -name '*.rs' | sort); do
    if sed '/^[[:space:]]*#\[cfg(test)\]/,$d' "$f" \
        | grep -nE 'FeatureWindow|NormStats|MultiOffload|OffloadEngine|on_tick_staged'; then
        echo "tensor staging in $f (the back-test queues tickets: use TicketQueue)"
        staged=1
    fi
done
[[ "$staged" == "0" ]]

echo "== one trader: no feature window or tiny registry built outside LightTrader and the two offload views =="
# LightTraderBuilder is the one place a registry is built and windows are
# sized, for one shard or N (MultiSymbolTrader is an alias). OffloadEngine
# and MultiOffload build their own windows until the benchmark stops
# naming them.
built=0
for f in $(find crates/*/src -name '*.rs' | sort); do
    case "$f" in
        crates/core/src/system.rs | crates/pipeline/src/offload.rs | crates/pipeline/src/multi_offload.rs) continue ;;
    esac
    if sed '/^[[:space:]]*#\[cfg(test)\]/,$d' "$f" | grep -nE 'FeatureWindow::new|ModelRegistry::tiny'; then
        echo "a second trader core in $f (build through LightTraderBuilder)"
        built=1
    fi
done
[[ "$built" == "0" ]]

echo "== one way to run a batch: no thread in lt-dnn's non-test code, no precision knob in any crate's =="
# A batch runs on the calling thread (the zero-alloc gates count this
# thread's allocations only), and every forward is priced in BF16.
knobs=0
for f in $(find crates/dnn/src -name '*.rs' | sort); do
    if sed '/^[[:space:]]*#\[cfg(test)\]/,$d' "$f" \
        | grep -nE 'std::thread|thread::scope|available_parallelism'; then
        echo "threads in $f (batched forwards run on the calling thread)"
        knobs=1
    fi
done
for f in $(find crates/*/src -name '*.rs' | sort); do
    if sed '/^[[:space:]]*#\[cfg(test)\]/,$d' "$f" | grep -nw 'Precision'; then
        echo "a precision knob in $f (INT8 is Table I's spec row only)"
        knobs=1
    fi
done
[[ "$knobs" == "0" ]]

echo "== bounded unsafe: the three tile-sweep dispatches in lt-dnn's kernels.rs, each under a // SAFETY: comment, AVX2 or AVX-512F only =="
# Every crate root forbids unsafe_code but lt-dnn's, which denies it:
# gemm_packed (its AVX-512F and AVX2 instances) and conv2d_kw1_direct_bf16
# (its AVX2 instance) allow it to call an instance right after the runtime
# feature check. A fourth site fails here, as does an instance compiled for
# any feature but avx2 or avx512f.
sites=$(for f in $(find crates/*/src -name '*.rs' | sort); do
    sed '/^[[:space:]]*#\[cfg(test)\]/,$d' "$f" | awk -v f="$f" '
        /^[[:space:]]*\/\// { if ($0 ~ /\/\/ SAFETY: /) safety = 1; next }
        /(^|[^A-Za-z0-9_])unsafe([^A-Za-z0-9_]|$)/ { print f ":" NR ":" (safety ? "safety" : "NO SAFETY COMMENT") }
        { safety = 0 }'
done)
echo "$sites"
if [[ "$(grep -c . <<< "$sites")" != "3" ]] \
    || grep -v '^crates/dnn/src/kernels.rs:[0-9]*:safety$' <<< "$sites"; then
    echo "unsafe outside the three tile-sweep dispatches, or without a // SAFETY: comment"
    exit 1
fi
if grep -rnE 'target_feature\(enable = "' crates/*/src | grep -vE 'enable = "(avx2|avx512f)"\)'; then
    echo "a target_feature other than avx2 or avx512f"
    exit 1
fi

echo "== unfused: no mul_add and no fmadd intrinsic in lt-dnn's non-test code =="
# Comment lines may name them. The instances keep the scalar loop's bits because Rust rounds every
# product before its add unless asked to fuse them; avx512f alone already
# lets LLVM emit FMA instructions, so the feature list cannot guard this.
fused=0
for f in $(find crates/dnn/src -name '*.rs' | sort); do
    if sed '/^[[:space:]]*#\[cfg(test)\]/,$d' "$f" | grep -nE 'mul_add|fmadd|fmsub|fnmadd|fnmsub' \
        | grep -vE '^[0-9]+:[[:space:]]*//'; then
        echo "fused multiply-add in $f (round the product, then add)"
        fused=1
    fi
done
[[ "$fused" == "0" ]]

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== benchmark package: harness units + every workload at smoke size =="
# Its own workspace, so tier-1 does not reach it: the facade-vs-shadow
# digest and the batched-vs-batch-1 answer parity fail here, not later.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== engine refactor gates: golden parity + determinism =="
cargo test -q --release -p lt-sim --test golden_parity --test determinism

echo "== ingress gates: fault injection + arbitration properties + codec goldens + hostile block lengths =="
cargo test -q --release -p lt-sim --test faults
cargo test -q --release -p lt-pipeline --test arbiter_props
cargo test -q --release -p lt-protocol --test roundtrip
# Exact bytes of every codec, and the chunked checksum on a long payload.
cargo test -q --release -p lt-protocol --test golden
# Release drops the debug-only checks: it is the build that must not panic.
cargo test -q --release -p lt-pipeline --test hostile_wire

echo "== hot-path gates: ladder ≡ reference through the engine's events + zero-alloc from datagram bytes to order bytes, for the fleet's rounds and for the back-test's ticket-queue walk + the trader's datagram-vs-event and the fleet's own-window differentials =="
cargo test -q --release -p lt-lob --test book_equivalence
cargo test -q --release -p lt-pipeline --test zero_alloc
# Warm-up boundary, tier switch and 300-event datagram, each against
# event-by-event intake, optimized as the facade serves; and the fleet
# drained every other round and across tier switches, where every answer
# must be its own tick's batch-1 forward of the serving tier.
cargo test -q --release -p lighttrader --lib

echo "== inference gates: nonlinearity contract + model-output goldens + packed-vs-reference equivalence + batch-N-vs-batch-1 + swept-vs-whole-window bit-equivalence + zero-alloc + datagram-vs-event differential =="
# exp/tanh/sigmoid against f64, special values, oddness, slice == scalar
# at every vector tail, and a pinned bit table.
cargo test -q --release -p lt-dnn --lib math
# The answers' bits; release also runs the NaN-window check.
cargo test -q --release -p lt-dnn --test golden
# kernel_equivalence is the only link between the production path and the
# oracle, and release is what serves: run it optimized, not only in debug.
cargo test -q --release -p lt-dnn --test kernel_equivalence
# The register tile's own grids (every live-chain count, lane and row tail)
# against scalar loops, for the same reason; the sweeps' dispatched entries
# (this CPU's instance, `tile_isa()`) against their portable bodies.
cargo test -q --release -p lt-dnn --lib kernels
# softmax_rows and LayerNorm::forward_rows, eight rows to a block, against
# per-row oracles, with NaN, infinite and signed-zero rows.
cargo test -q --release -p lt-dnn --test row_reductions
cargo test -q --release -p lt-dnn --test batch_equivalence
# Sweeps of 1..=12 windows through forward_slides. Release also runs the
# NaN rows, which debug's Prediction assert refuses.
cargo test -q --release -p lt-dnn --test stream_equivalence
# Includes the k = 1 -> 12 -> 1 -> miss -> 6 sweep walk; the facade's
# per-datagram allocations are in lt-pipeline's zero_alloc above.
cargo test -q --release -p lt-dnn --test zero_alloc
# One registry call per datagram sweep must trade as one call per event.
cargo test -q --release -p lighttrader --test end_to_end datagrams_and_single_events_drive_the_same_trades

echo "== multi-symbol gates: single-shard parity + sharded determinism + coalesced-vs-independent floor =="
cargo test -q --release -p lt-sim --test multi_symbol

echo "== back-test farm gates: farm-vs-serial parity + trace-cache accounting =="
cargo test -q --release -p lt-sim --test farm

echo "== tier scheduler gates: planner/estimator properties + outcome accounting + tiered-vs-fixed storm hit rate =="
cargo test -q --release -p lt-sched --test tier_props
cargo test -q --release -p lt-sim --test tier_accounting

echo "== execution gates: assume-fill golden differential + pinned fills + fill-model floors + portfolio properties + kill-switch drawdown =="
cargo test -q --release -p lt-sim --test golden_parity assume_fill_mode_matches_goldens
# Every order settles its own tick's decision: exact ExecutionStats.
cargo test -q --release -p lt-sim --test golden_parity execution_fills_match_goldens
cargo test -q --release -p lt-sim --test execution
cargo test -q --release -p lt-pipeline --test portfolio_props
cargo test -q --release -p lighttrader drawdown_on_held_position_trips_kill_with_no_orders_in_flight

if [[ "$fast" == "0" ]]; then
    echo "== kernel regression (5x DeepLOB packed-vs-reference floor at batch 1) =="
    cargo run --release -p lt-bench --bin bench_kernels
    grep -q '"floor_met": true' BENCH_kernels.json
fi

echo "== all checks passed =="
