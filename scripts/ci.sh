#!/usr/bin/env bash
# Tier-1 CI gate. Runs the full stage list by default, or a single stage
# with `--stage <name>` (the GitHub workflow runs one named step per
# stage so failures are attributable at a glance).
#
#   fmt     cargo fmt --check (no reformat)
#   clippy  perf lints, all warnings fatal, all targets
#   build   release build of the whole workspace
#   test    cargo test -q --workspace (includes the root package)
#   doc     rustdoc with warnings fatal (broken intra-doc links etc.)
#   trace   schedule-trace validator over a 5-seed fault sweep
#           (see docs/FAULT_INJECTION.md)
#   sched   scheduling-correctness layer: critical-path priority
#           property tests, policy determinism matrix, and the 128-rank
#           DES policy study (see docs/SCHEDULING.md)
#   transport  cross-backend conformance layer: codec property tests,
#           the wire-model accounting guard, peer-death failure modes,
#           and the conformance suite over every transport backend
#           (channel/shm always; TCP/UDS when the environment permits
#           binding localhost sockets — skipped loudly otherwise; see
#           docs/TRANSPORT.md)
#   precision  mixed-precision layer: the solver's mixed/fallback unit
#           tests, the ill-conditioned fallback suite, and the
#           golden-corpus mixed-precision equivalence assertions,
#           and the probe-cadence tests (see docs/PRECISION.md)
#   solve   solve-phase layer: the panel triangular solve must equal the
#           per-RHS sweeps bit for bit under BOTH codegen profiles (debug
#           has no vectorisation, release does): the trisolve/solve_multi
#           unit tests and tests/solve_panel.rs, each run without and
#           with --release (see docs/ALGORITHM.md §5)
#   kernels  dense-tile lane layer: the lane must equal the sparse
#           kernels bit for bit under BOTH codegen profiles (debug has no
#           vectorisation, release does): the whole pangulu-kernels
#           package (lib + planned_equivalence + tile_equivalence +
#           kernel_properties) and the determinism / refactor rows that
#           drive the lane through every executor, each run without and
#           with --release (see docs/ALGORITHM.md §4); with them the
#           plan-timing contract — no plan after build(), plans built by
#           the first refactor, flat from the second, first-run variant
#           route == later planned route on every executor and width
#           (see docs/KERNEL_PLANS.md "When plans are built")
#   ordering  fill-reducing-order layer: the reorder and symbolic
#           packages (postorder properties: equal fill, contiguous
#           subtrees, idempotent, deterministic; the `amd::` hub rule and
#           its work bound, `order_graph` reads <= 10x its input on
#           circuits, which is what keeps a later change from
#           re-admitting the hubs) and the task-granularity
#           ratchet of tests/granularity.rs — the ceiling that keeps a
#           later ordering change from silently re-scattering the block
#           grid — each run without and with --release (see
#           docs/ALGORITHM.md §1)
#   bench   benchmark-regression gates: smoke + refactor + kernel
#           baselines (see docs/OBSERVABILITY.md and docs/PERFORMANCE.md)
#   bench-kernels  the kernel-plan gate alone: re-runs bench_kernels and
#           diffs it against data/BENCH_kernels.json (docs/KERNEL_PLANS.md)
#   benchmark-api  builds and tests the repo benchmark (benchmark/, its
#           own workspace, compiled only against public items of
#           crates/*), so an API change that breaks it fails here
#           instead of in the benchmark driver; read-only on benchmark/
#
# Usage:
#   scripts/ci.sh [seed-base]
#   scripts/ci.sh --stage <name> [seed-base]
#
# The trace stage validates fault seeds seed-base..seed-base+4; the base
# comes from the positional argument, else PANGULU_TRACE_SEED_BASE, else
# 1. CI derives the base from the pipeline run number, so every pipeline
# run sweeps a different seed window while staying fully deterministic
# within a run. Each stage's output is teed to target/ci-logs/<stage>.log
# and a per-stage timing table is printed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

log_dir="target/ci-logs"
mkdir -p "$log_dir"

stage_fmt() {
    cargo fmt --all -- --check
}

stage_clippy() {
    cargo clippy --workspace --all-targets -- -D clippy::perf -D warnings
}

stage_build() {
    cargo build --release
}

stage_test() {
    cargo test -q --workspace
}

stage_doc() {
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
}

stage_trace() {
    cargo build --release -q --bin trace_validate
    local seed
    for seed in $(seq "$seed_base" $((seed_base + 4))); do
        echo "--- trace_validate, fault seed $seed"
        ./target/release/trace_validate "$seed"
    done
}

stage_sched() {
    cargo test --release -q \
        --test priorities --test determinism --test des_consistency --test refactor
}

stage_transport() {
    cargo test --release -q -p pangulu-comm
    cargo test --release -q \
        --test transport_conformance --test wire_model --test failure_modes
}

stage_precision() {
    cargo test --release -q -p pangulu-core --lib -- \
        mixed precision scalar_width fallback falls_back widened probe
    cargo test --release -q --test precision_fallback --test solver_equivalence
}

stage_solve() {
    local profile
    for profile in "" --release; do
        echo "--- solve equivalence, profile: ${profile:-debug}"
        cargo test $profile -q -p pangulu-core --lib -- trisolve solve_multi
        cargo test $profile -q --test solve_panel
    done
}

stage_kernels() {
    local profile
    for profile in "" --release; do
        echo "--- dense-tile lane equivalence, profile: ${profile:-debug}"
        cargo test $profile -q -p pangulu-kernels
        cargo test $profile -q --test determinism --test refactor -- dense_tile plan
        cargo test $profile -q -p pangulu-core --lib -- plan
        cargo test $profile -q --test solver_equivalence -- negative_zero
    done
}

stage_ordering() {
    local profile
    for profile in "" --release; do
        echo "--- ordering properties and granularity ratchet, profile: ${profile:-debug}"
        cargo test $profile -q -p pangulu-reorder -p pangulu-symbolic
        cargo test $profile -q --test granularity
    done
}

stage_bench() {
    scripts/bench_compare.sh
}

stage_bench_kernels() {
    local fresh="${PANGULU_BENCH_FRESH_DIR:-target/bench-fresh}"
    mkdir -p "$fresh"
    cargo build --release -q -p pangulu-bench --bin bench_kernels --bin bench_compare
    PANGULU_DATA_DIR="$fresh" ./target/release/bench_kernels
    ./target/release/bench_compare data/BENCH_kernels.json "$fresh/BENCH_kernels.json"
}

stage_benchmark_api() {
    cargo test --release --offline --manifest-path benchmark/Cargo.toml
}

all_stages=(fmt clippy build test doc trace sched transport precision solve kernels ordering
    bench bench-kernels benchmark-api)

only=""
if [[ "${1:-}" == "--stage" ]]; then
    only="${2:?usage: scripts/ci.sh --stage <name> [seed-base]}"
    shift 2
    found=0
    for s in "${all_stages[@]}"; do [[ "$s" == "$only" ]] && found=1; done
    if [[ "$found" -ne 1 ]]; then
        echo "ci.sh: unknown stage '$only' (stages: ${all_stages[*]})" >&2
        exit 2
    fi
fi
seed_base="${1:-${PANGULU_TRACE_SEED_BASE:-1}}"

timing_rows=()
print_timings() {
    if [[ "${#timing_rows[@]}" -gt 0 ]]; then
        echo "== stage timings =="
        printf '  %s\n' "${timing_rows[@]}"
    fi
}
trap print_timings EXIT

run_stage() {
    local name="$1" t0 dt
    echo "== stage: $name =="
    t0=$SECONDS
    "stage_${name//-/_}" 2>&1 | tee "$log_dir/$name.log"
    dt=$((SECONDS - t0))
    timing_rows+=("$(printf '%-7s %4ds' "$name" "$dt")")
}

if [[ -n "$only" ]]; then
    run_stage "$only"
else
    for s in "${all_stages[@]}"; do
        run_stage "$s"
    done
    echo "CI OK"
fi
