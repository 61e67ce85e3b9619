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

# A file's non-test code: its lines above its first #[cfg(test)]. The
# per-file gates below read every file through this cut, so it fails (exit
# 1, the reason on stderr) a file whose test code does not all come last:
# a first #[cfg(test)] that is indented (a test-only item inside an impl)
# or a column-0 item after it without its own #[cfg(test)] would hide that
# file's later non-test code from every gate.
nontest() {
    awk '
        !cut && /^[ \t]*#\[cfg\(test\)\]/ {
            cut = tagged = 1
            if (/^[ \t]/) { print FILENAME ":" FNR ": first #[cfg(test)] is indented" > "/dev/stderr"; bad = 1 }
            next
        }
        !cut { print; next }
        /^#\[cfg\(test\)\]/ { tagged = 1; next }
        /^[A-Za-z]/ && !/^where([^A-Za-z0-9_]|$)/ {
            if (!tagged) { print FILENAME ":" FNR ": item after #[cfg(test)] without its own" > "/dev/stderr"; bad = 1 }
            tagged = 0
        }
        END { exit bad }' "$1"
}

echo "== cargo fmt --check =="
cargo fmt --check

echo "== reachability: no source file whose pub items nothing names, no pub fn without a production caller (tests do not count) =="
./scripts/islands.sh

echo "== test code last: every crates/*/src file's non-test code lies above its first #[cfg(test)] =="
for f in $(find crates/*/src -name '*.rs' | sort); do
    nontest "$f" >/dev/null
done

echo "== own nonlinearities: no libm transcendental in the inference ops' non-test code =="
# The per-query path takes exp/tanh/sigmoid from lt_dnn::math, so no answer
# depends on the host's libm. sqrt and powi(2) are exact IEEE operations.
libm=0
for f in crates/dnn/src/ops/*.rs crates/dnn/src/kernels.rs crates/dnn/src/math.rs; do
    if nontest "$f" \
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
    if nontest "$f" \
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
    if nontest "$f" | grep -nE 'FeatureWindow::new|ModelRegistry::tiny'; then
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
    if nontest "$f" \
        | grep -nE 'std::thread|thread::scope|available_parallelism'; then
        echo "threads in $f (batched forwards run on the calling thread)"
        knobs=1
    fi
done
for f in $(find crates/*/src -name '*.rs' | sort); do
    if nontest "$f" | grep -nw 'Precision'; then
        echo "a precision knob in $f (INT8 is Table I's spec row only)"
        knobs=1
    fi
done
[[ "$knobs" == "0" ]]

echo "== one back-test configuration: no tier parameters, ladder or base override, fixed grid deadline or queue-capacity field in any crate's non-test code =="
# DeadlineTiered runs on WS+DS over TierLadder::up_to(kind), and its budget
# (BacktestConfig::tier_budget) is its one knob; every back-test queue holds
# lt_sim::QUEUE_CAPACITY tickets a shard.
config=0
for f in $(find crates/*/src -name '*.rs' | sort); do
    if nontest "$f" \
        | grep -nE 'TierParams|with_tier_base|with_tier_ladder|GridDeadline::Fixed|(^|[^A-Za-z0-9_])queue_capacity[[:space:]]*:[^:]'; then
        echo "a second back-test configuration in $f (tier_budget is the tiered scheduler's one knob)"
        config=1
    fi
done
[[ "$config" == "0" ]]

echo "== one risk path: no kill switch, rate limiter, ledger or venue fill outside the trading engine and the modules it is built from =="
# The trading engine owns every risk gate and the ledger, for the
# functional trader and every back-test shard alike: anything else trades
# through TradingEngine::{on_prediction, intent, settle}, so the rules
# that settle a back-tested order are the rules that gate a live one.
risk=0
for f in $(find crates/*/src -name '*.rs' | sort); do
    case "$f" in
        crates/pipeline/src/trading.rs | crates/pipeline/src/rate_limit.rs \
            | crates/pipeline/src/portfolio.rs | crates/pipeline/src/lib.rs \
            | crates/lob/src/execution.rs | crates/lob/src/lib.rs) continue ;;
    esac
    if nontest "$f" | grep -nwE 'KillSwitch|OrderRateLimiter|Portfolio|fill_ioc' \
        | grep -vE '^[0-9]+:[[:space:]]*//'; then
        echo "a second risk path in $f (trade through lt_pipeline::TradingEngine)"
        risk=1
    fi
done
[[ "$risk" == "0" ]]

echo "== one outcome ledger: no outcome counter written outside the back-test's ledger and the ticket queue =="
# BacktestMetrics counts every query outcome in its per-shard rows and
# writes the totals once, as their sum; the ticket queue's per-shard
# counters are read into those rows at run end. Anything else that
# counts a response, a late answer, a drop or a defer is a second copy.
ledger=0
for f in $(find crates/*/src -name '*.rs' | sort); do
    case "$f" in
        crates/sim/src/metrics.rs | crates/pipeline/src/multi_offload.rs) continue ;;
    esac
    if nontest "$f" \
        | grep -nE '(^|[^A-Za-z0-9_])(responded|late|dropped_full|dropped_stale|dropped_deadline|deferred)[[:space:]]*\+=' \
        | grep -vE '^[0-9]+:[[:space:]]*//'; then
        echo "a second outcome count in $f (count through lt_sim::BacktestMetrics)"
        ledger=1
    fi
done
[[ "$ledger" == "0" ]]

echo "== bounded unsafe: one unsafe call and one #[target_feature], both in kernels.rs's instances! macro, the call under a // SAFETY: comment; AVX2 or AVX-512F instances only =="
# Every crate root forbids unsafe_code but lt-dnn's, which denies it: the
# entries the instances! macro defines in kernels.rs (its five passes:
# gemm_packed, lstm_steps, conv2d_direct_bf16, attention_batch and
# layer_norm_rows) allow it to call the instances it compiles for their
# target features, right after the runtime feature check. A second site anywhere fails here, as does an
# instance compiled for any feature but avx2 or avx512f.
sites=$(for f in $(find crates/*/src -name '*.rs' | sort); do
    nontest "$f" | awk -v f="$f" '
        /^[ \t]*\/\// { if ($0 ~ /\/\/ SAFETY: /) safety = 1; next }
        /^macro_rules! instances \{/ { macro = 1 }
        /(^|[^A-Za-z0-9_])unsafe([^A-Za-z0-9_]|$)/ { print f ":" NR ":unsafe:" (macro ? "macro" : "OUTSIDE THE MACRO") ":" (safety ? "safety" : "NO SAFETY COMMENT") }
        /target_feature\(enable/ { print f ":" NR ":target_feature:" (macro ? "macro" : "OUTSIDE THE MACRO") }
        /^\}/ { macro = 0 }
        { safety = 0 }'
done)
echo "$sites"
if [[ "$(grep -c . <<< "$sites")" != "2" ]] \
    || ! grep -q '^crates/dnn/src/kernels.rs:[0-9]*:unsafe:macro:safety$' <<< "$sites" \
    || ! grep -q '^crates/dnn/src/kernels.rs:[0-9]*:target_feature:macro$' <<< "$sites"; then
    echo "unsafe or target_feature outside the instances! macro, or its unsafe without a // SAFETY: comment"
    exit 1
fi
if nontest crates/dnn/src/kernels.rs | grep -nE '^[[:space:]]*"[^"]*"[[:space:]]*=>' \
    | grep -vE '"(avx2|avx512f)"[[:space:]]*=>'; then
    echo "an instance for a feature other than avx2 or avx512f"
    exit 1
fi

echo "== unfused: no mul_add and no fmadd intrinsic in lt-dnn's non-test code =="
# Comment lines may name them. The instances keep the scalar loop's bits because Rust rounds every
# product before its add unless asked to fuse them; avx512f alone already
# lets LLVM emit FMA instructions, so the feature list cannot guard this.
fused=0
for f in $(find crates/dnn/src -name '*.rs' | sort); do
    if nontest "$f" | grep -nE 'mul_add|fmadd|fmsub|fnmadd|fnmsub' \
        | grep -vE '^[0-9]+:[[:space:]]*//'; then
        echo "fused multiply-add in $f (round the product, then add)"
        fused=1
    fi
done
[[ "$fused" == "0" ]]

echo "== activations live in the stores: no activation pass in the executor, the stream or any spec, no gate vector in the kernels =="
# A convolution or dense layer stores its activation of each BF16-rounded
# sum (its post), so no layer makes a second pass over its output; the
# LSTM's gates go from registers into the cell (lstm_steps), and no gate
# vector is written.
stores=0
for f in crates/dnn/src/net.rs crates/dnn/src/stream.rs crates/dnn/src/kernels.rs crates/dnn/src/models/mod.rs; do
    # A renamed file would pass the greps below unread.
    [[ -f "$f" ]] || { echo "missing $f (update this gate's file list)"; exit 1; }
done
for f in crates/dnn/src/net.rs crates/dnn/src/stream.rs $(find crates/dnn/src/models -name '*.rs' | sort); do
    if nontest "$f" | grep -nE 'relu_slice|leaky_relu_slice'; then
        echo "an activation pass in $f (fold it into the layer's post)"
        stores=1
    fi
done
if nontest crates/dnn/src/kernels.rs | grep -n 'lstm_gates_packed_batch'; then
    echo "a gate vector in crates/dnn/src/kernels.rs (the gates live in lstm_steps' registers)"
    stores=1
fi
[[ "$stores" == "0" ]]

echo "== models are specs: no packed forward, reference forward or scratch pad in crates/dnn/src/models =="
# A model is its spec's weightless layer list; lt_dnn::net lowers it and
# runs it, packed and reference alike. A spec that ran a layer itself
# would be a second executor.
specs=0
for f in $(find crates/dnn/src/models -name '*.rs' | sort); do
    if nontest "$f" \
        | grep -nE 'forward_batch|forward_reference|forward_direct|forward_rows|softmax_head|last_hidden_batch|advance_trunk|ScratchPad|take_dirty|\.give\(' \
        | grep -vE '^[0-9]+:[[:space:]]*//'; then
        echo "a model runs its own layers in $f (list them; lt_dnn::net runs them)"
        specs=1
    fi
done
[[ "$specs" == "0" ]]

echo "== packs stay in their ops: no PackedWeights or pack_weights in lt-dnn, no fn outside batch.rs taking a PackedPanels =="
# Each op packs its GEMM operands once, in its constructor, and its packed
# forward reads its own panels: no side table of packs to thread through
# the net, the executor, the stream or the registry, and no forward that
# takes a pack. Return types do not count; batch.rs defines the type.
packs=0
for f in $(find crates/dnn/src -name '*.rs' | sort); do
    if nontest "$f" | grep -nwE 'PackedWeights|pack_weights' \
        | grep -vE '^[0-9]+:[[:space:]]*//'; then
        echo "a side table of packs in $f (an op owns its panels)"
        packs=1
    fi
    [[ "$f" == crates/dnn/src/batch.rs ]] && continue
    if nontest "$f" | awk '
        /^[[:space:]]*\/\// { next }
        /(^|[^A-Za-z0-9_])fn[[:space:]]+[A-Za-z0-9_]+/ { sig = 1 }
        sig {
            line = $0
            sub(/->.*/, "", line)
            if (line ~ /PackedPanels/) { print NR ": " $0; found = 1 }
            if ($0 ~ /[{;][[:space:]]*$/) sig = 0
        }
        END { exit !found }'; then
        echo "a function taking a pack in $f (read the op's own panels)"
        packs=1
    fi
done
[[ "$packs" == "0" ]]

echo "== queries are stored panel-ready: no query pack in the attention op's non-test code =="
# The Q projection stores its output transposed, the layout the attention
# core reads (a block of queries' column is one lane word), and the core
# runs once over the whole batch: no per-sample repack of the queries
# between the projection and the core.
if nontest crates/dnn/src/ops/attention.rs | grep -nE '(^|[^A-Za-z0-9_])pack_bt_panels' \
    | grep -vE '^[0-9]+:[[:space:]]*//'; then
    echo "a query pack in crates/dnn/src/ops/attention.rs (store the Q projection in the core's layout)"
    exit 1
fi

echo "== a batch completes when it is due: no completion token, rescale event or idle-reservation recompute in any crate's non-test code =="
# The back-test's batch in flight is the one record of what a chip runs. A
# completion settles it only at its due time, and a rescale moves that time
# in place, so no token tells a stale completion apart, no event carries a
# rescale, and the idle reservation is computed once, when the model is
# built.
due=0
for f in $(find crates/*/src -name '*.rs' | sort); do
    if nontest "$f" \
        | grep -nE '\b(BatchId|DvfsRescale|on_dvfs_rescale|retime_batch|current_batch)\b|\bfn[[:space:]]+idle_reservation\b'; then
        echo "a second record of a chip's batch in $f (settle the flight when it is due)"
        due=1
    fi
done
[[ "$due" == "0" ]]

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== examples: each runs to completion in release =="
# The reachability gate counts the examples as production callers, so
# they run here, not only compile: a panicking example fails.
for example in quickstart backtest_emini burst_storm record_replay scheduler_explorer; do
    cargo run -q --release --example "$example" >/dev/null
done

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

echo "== hot-path gates: ladder ≡ reference through the engine's events + zero-alloc from datagram bytes to order bytes, for the fleet's rounds and for the back-test's ticket-queue walk + the trader's datagram-vs-one-event-datagram and the fleet's own-window differentials =="
cargo test -q --release -p lt-lob --test book_equivalence
cargo test -q --release -p lt-pipeline --test zero_alloc
# Warm-up boundary, tier switch and 300-event datagram, each against the
# same events sent one to a datagram, optimized as the facade serves; and
# the fleet drained every other round and across tier switches, where
# every answer must be its own tick's batch-1 forward of the serving tier.
cargo test -q --release -p lighttrader --lib

echo "== inference gates: nonlinearity contract + model-output goldens + packed-vs-reference equivalence + batch-N-vs-batch-1 + swept-vs-whole-window bit-equivalence + zero-alloc + datagram-vs-one-event-datagram differential =="
# exp/tanh/sigmoid against f64, special values, oddness, exp_slice ==
# exp at every vector tail, and a pinned bit table.
cargo test -q --release -p lt-dnn --lib math
# The answers' bits; release also runs the NaN-window check.
cargo test -q --release -p lt-dnn --test golden
# kernel_equivalence is the only link between the production path and the
# oracle, and release is what serves: run it optimized, not only in debug.
cargo test -q --release -p lt-dnn --test kernel_equivalence
# The register tile's own grids (every live-chain count, lane and row tail)
# against scalar loops, for the same reason; every pass's dispatched entry
# (this CPU's instance, `tile_isa()`) and its portable body at both widths
# against scalar loops.
cargo test -q --release -p lt-dnn --lib kernels
# softmax_rows (eight rows to a block) and LayerNorm::forward_rows (eight,
# or sixteen on AVX-512) against per-row oracles, with NaN, infinite and
# signed-zero rows.
cargo test -q --release -p lt-dnn --test row_reductions
cargo test -q --release -p lt-dnn --test batch_equivalence
# Sweeps of 1..=MAX_SWEEP windows through forward_slides. Release also runs the
# NaN rows, which debug's Prediction assert refuses.
cargo test -q --release -p lt-dnn --test stream_equivalence
# Includes the k = 1 -> 12 -> 1 -> miss -> 6 sweep walk; the facade's
# per-datagram allocations are in lt-pipeline's zero_alloc above.
cargo test -q --release -p lt-dnn --test zero_alloc
# One registry call per datagram sweep must trade as the same events sent
# one to a datagram, whose parser sees no gap and rejects nothing.
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
