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
#   panics  panic-site ratchet: per-crate count of unwrap/expect/panic!/
#           unreachable!/assert!/assert_eq!/assert_ne! (not debug_assert*)
#           in non-test code must not exceed
#           scripts/panic_ceiling.txt (scripts/panic_sites.sh)
#   trace   schedule-trace validator over a 5-seed fault sweep
#           (see docs/FAULT_INJECTION.md)
#   sched   scheduling-correctness layer. Sync-free only first:
#           crates/core/src/{dist,shared}.rs may hold no `Condvar` and no
#           `Barrier` — ranks and workers synchronise only through the
#           countdown and the mailbox (§4.4). Then the determinism matrix
#           (bitwise factors across grids x fault plans x shared
#           thread counts), the DES <-> executor traffic identity,
#           refactorisation reuse, the stall diagnosis under faults and the
#           schedule-trace replay, the golden work counters of the
#           regression corpus (tests/golden_counts.rs: messages, bytes,
#           tasks, kernel and plan counters, exact), the panicking-task
#           failure modes (a task that panics ends a shared or a
#           distributed run promptly; tests/failure_modes.rs), and the
#           engine's, the rank edge's and the dependency rule's unit tests
#           (seq:: shared:: dist:: task::), each run
#           without and with --release so the thread-count stress meets
#           debug timing too (see docs/SCHEDULING.md)
#   comm    comm layer, wire model and metrics invariants: the
#           pangulu-comm package (mailboxes, fault layer), the
#           wire-model accounting guard (the per-edge fixture table,
#           f64 and f32), the metrics suite (observed == predicted model
#           FLOPs on every grid x precision, deterministic work
#           counters) and the failure modes (a lost message, a
#           panicking task; see docs/TRANSPORT.md)
#   precision  mixed-precision layer: the solver's mixed/fallback unit
#           tests, the ill-conditioned fallback suite, and the
#           golden-corpus mixed-precision equivalence assertions,
#           and the probe-cadence tests (see docs/PRECISION.md). First a
#           grep guard: the non-test code of crates/core/src/solver.rs
#           may not copy the caller's pattern (`col_ptr().to_vec()`,
#           `row_idx().to_vec()`) or hold a `(usize, usize)` scatter slot
#           — a solver shares A's pattern and its scatter map keeps 8-byte
#           slots (docs/REFACTORISATION.md "What is cached"), which the
#           counting allocator of `--test build_peak` then measures
#   solve   solve-phase layer: the panel triangular solve must equal the
#           per-RHS sweeps bit for bit, and every execution mode (ranks,
#           shared threads) must solve
#           like the 1-rank solver bit for bit, under BOTH codegen
#           profiles (debug has no vectorisation, release does): the
#           trisolve/solve_multi unit tests (the AVX2 and the portable
#           sweep instance each against the scalar oracle; the log names
#           the instances this runner checked), the block tests (the
#           diagonal-position table) and tests/solve_panel.rs, each run
#           without and with --release (see docs/ALGORITHM.md §5); the
#           solve_multi tests include one solver answering a sequence of
#           widths against fresh solvers and two threads sharing one
#           solver (the workspace fallback). Last `--test build_peak` in
#           release: the first solve_multi keeps one panel, a second
#           allocates none beside its solutions
#   kernels  kernel layer. One level of parallelism first:
#           crates/kernels/src may hold no `std::thread`, no `Atomic*` and
#           no `unsafe impl` — every kernel runs on its task's thread and
#           the executor owns the cores (the tile lane's `unsafe` calls
#           to its AVX-512 and AVX2 instances stay legal). Then a grep
#           guard keeps the instances bitwise equal: the non-test code of
#           crates/kernels/src and crates/core/src may not call `mul_add`
#           or enable the `fma` target feature — a fused multiply-add
#           rounds once where the portable instance rounds twice, so the
#           factors and solutions would depend on the CPU (`avx512f`
#           implies `fma` for code generation, but Rust never fuses a
#           separate multiply and subtraction). Then the dense-tile lane
#           must equal the sparse kernels bit for bit under BOTH codegen
#           profiles (debug has no vectorisation, release does): every
#           tile instance this CPU runs (AVX-512, AVX2, portable) against
#           the naive loops of all four classes at heights straddling
#           every tile and every shifted tail tile (up to 128) — GETRF's
#           left-looking LU on full diagonal blocks among them (the log
#           line `tile instances checked (GETRF GESSM TSTRF SSSSM):
#           avx512 (tails 17-31 f64 / 33-63 f32 shifted), avx2 (tails 5-7
#           f64 / 9-15 f32 shifted) and portable (tails 3 f64 / 5-7 f32
#           shifted)` names the instances this runner ran and the row
#           remainders each covers with one shifted full-height tile
#           instead of the halved-height cascade; `portable only` on a
#           CPU without AVX2), the whole pangulu-kernels package (lib +
#           planned_equivalence + tile_equivalence + kernel_properties,
#           where every Table 1 variant must give its class's `C_V1`
#           bits) and the determinism /
#           refactor rows that drive the lane through every executor,
#           each run without and with --release (see docs/ALGORITHM.md
#           §4); with them the
#           plan-timing contract — no plan after build(), plans built by
#           the first refactor, flat from the second, first-run variant
#           route == later planned route on every executor and width
#           (see docs/KERNEL_PLANS.md "When plans are built"). First a
#           grep guard keeps `PlanIdx`/`PlanIndex` out of crates/*/src
#           (plans hold one u16 arena at every precision), and another
#           fails if the non-test code of crates/kernels/src/select.rs
#           defines `fn paper` or gives `Thresholds` a field other than
#           the four planned gates (the calibrated leaves are private
#           constants: the selection shipped is the one the solver
#           runs); last
#           `--test build_peak` (release) holds `plan_bytes` to what the
#           first refactor keeps and the plan build under the steady
#           refactor's peak (docs/KERNEL_PLANS.md "Memory")
#   ordering  fill-reducing-order layer. First a grep guard: the
#           non-test code of crates/symbolic/src may not call
#           `symmetrize(` or `ensure_diagonal(` or hold `pairs_col` —
#           symbolic factorisation is one pattern-only walk, counted then
#           written in place (docs/ALGORITHM.md §2). Then the reorder and
#           symbolic packages (postorder properties: equal fill, contiguous
#           subtrees, idempotent, deterministic; the `amd::` hub rule and
#           its work bound, `order_graph` reads <= 10x its input on
#           circuits, which is what keeps a later change from
#           re-admitting the hubs) and the task-granularity
#           ratchet of tests/granularity.rs — the ceiling that keeps a
#           later ordering change from silently re-scattering the block
#           grid — each run without and with --release (see
#           docs/ALGORITHM.md §1)
#   figures  evaluation gate: runs the `figures` binary (release) into
#           target/ci-logs/figures-data and compares it with the committed
#           data/ — byte for byte on the CSVs that repeat exactly from run
#           to run, and by header name on the columns that repeat in the
#           others (their timing columns vary). A change that moves a
#           figure on purpose commits the regenerated CSV and says why
#           (see EXPERIMENTS.md)
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

stage_panics() {
    scripts/panic_sites.sh
}

stage_trace() {
    cargo build --release -q --bin trace_validate
    local seed
    for seed in $(seq "$seed_base" $((seed_base + 4))); do
        echo "--- trace_validate, fault seed $seed"
        "${CARGO_TARGET_DIR:-target}/release/trace_validate" "$seed"
    done
}

stage_sched() {
    local profile
    echo "--- sync-free only: no condition variables or barriers in the executor"
    if grep -nE 'Condvar|Barrier' crates/core/src/dist.rs crates/core/src/shared.rs; then
        echo "ci.sh: the executor synchronises outside the countdown and the mailbox;" \
            "ranks run the sync-free schedule only" >&2
        return 1
    fi
    for profile in "" --release; do
        echo "--- scheduling correctness, profile: ${profile:-debug}"
        cargo test $profile -q --test determinism --test des_consistency --test refactor \
            --test fault_injection --test schedule_trace --test golden_counts \
            --test failure_modes
        cargo test $profile -q -p pangulu-core --lib -- seq:: shared:: dist:: task::
    done
}

stage_comm() {
    echo "--- timing faults only: no retry, backoff, sever or peer death in the comm layer"
    if grep -rniE 'retr(y|ies|ied)|backoff|\bsever(s|ed|ing)?\b|peer[_ ]?death' crates/comm/src; then
        echo "ci.sh: crates/comm/src models a lossy network; a plan perturbs timing" \
            "and loses at most one named message" >&2
        return 1
    fi
    cargo test --release -q -p pangulu-comm
    cargo test --release -q --test wire_model --test metrics --test failure_modes
}

stage_precision() {
    echo "--- shared pattern: no copy of A's pattern and no 16-byte scatter slot in the solver"
    if awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' \
        crates/core/src/solver.rs |
        grep -E 'col_ptr\(\)\.to_vec\(\)|row_idx\(\)\.to_vec\(\)|\(usize, usize\)'; then
        echo "ci.sh: a solver holds a value-less handle on the caller's pattern, not a copy," \
            "and its scatter map stores (u32, u32) slots" >&2
        return 1
    fi
    cargo test --release -q -p pangulu-core --lib -- \
        mixed precision scalar_width fallback falls_back widened probe
    cargo test --release -q --test precision_fallback --test solver_equivalence \
        --test build_peak --test oracle
}

stage_solve() {
    local profile
    for profile in "" --release; do
        echo "--- solve equivalence, profile: ${profile:-debug}"
        # Prints which sweep instances this runner checked (avx2 + portable,
        # or portable only).
        cargo test $profile -q -p pangulu-core --lib -- both_sweep_instances --nocapture
        cargo test $profile -q -p pangulu-core --lib -- \
            trisolve solve_multi block:: sweep_instance --skip both_sweep_instances
        cargo test $profile -q --test solve_panel
    done
    echo "--- one kept solve panel, none allocated per call (counting allocator)"
    cargo test --release -q --test build_peak
}

stage_kernels() {
    local profile
    echo "--- one level of parallelism: no threads, atomics or unsafe impls in the kernels"
    if grep -rnE 'std::thread|Atomic|unsafe impl' crates/kernels/src; then
        echo "ci.sh: crates/kernels/src spawns threads or shares state across them;" \
            "kernels run on their task's thread" >&2
        return 1
    fi
    echo "--- bitwise instances: no mul_add and no fma target feature in the kernels or core"
    # Non-test code only: a file stops at its first #[cfg(test)].
    if awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { nextfile }
        /^[[:space:]]*\/\// { next }
        /mul_add|target_feature.*enable[[:space:]]*=[[:space:]]*"[^"]*fma/ {
            print FILENAME ":" FNR ": " $0; found = 1
        }
        END { exit !found }
    ' crates/kernels/src/*.rs crates/core/src/*.rs; then
        echo "ci.sh: every kernel and sweep instance performs separate multiplies and" \
            "subtractions; a fused multiply-add would make the bits depend on the CPU" >&2
        return 1
    fi
    echo "--- compact plans: no per-scalar plan index type in the crates"
    if grep -rnE 'PlanIdx|PlanIndex' crates/*/src; then
        echo "ci.sh: kernel plans keep one u16 arena of column-relative" \
            "offsets; there is no per-scalar plan index type" >&2
        return 1
    fi
    echo "--- one kernel selection: no paper() and only the four planned gates in Thresholds"
    # Non-test code only: the file stops at its first #[cfg(test)].
    if awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /fn paper[[:space:](<]/ { print FILENAME ":" FNR ": " $0; found = 1 }
        /^pub struct Thresholds/ { inside = 1; next }
        inside && /^}/ { inside = 0 }
        inside && /^[[:space:]]*(pub[[:space:]]+)?[[:alnum:]_]+[[:space:]]*:/ &&
            !/^[[:space:]]*pub (getrf|gessm|tstrf|ssssm)_planned: f64,$/ {
            print FILENAME ":" FNR ": " $0; found = 1
        }
        END { exit !found }
    ' crates/kernels/src/select.rs; then
        echo "ci.sh: the selection the library ships is the one the solver runs:" \
            "its leaves are constants in select.rs, and Thresholds holds only" \
            "the four planned gates" >&2
        return 1
    fi
    for profile in "" --release; do
        echo "--- dense-tile lane equivalence, profile: ${profile:-debug}"
        # Prints which tile instances this runner checked for the four
        # classes (avx512, avx2 and portable, or fewer) and each one's
        # shifted row tails.
        cargo test $profile -q -p pangulu-kernels --lib -- both_tile_instances --nocapture
        cargo test $profile -q -p pangulu-kernels -- --skip both_tile_instances
        cargo test $profile -q --test determinism --test refactor -- dense_tile plan
        cargo test $profile -q -p pangulu-core --lib -- plan
        cargo test $profile -q --test solver_equivalence -- negative_zero
    done
    echo "--- plan pool bytes and first-refactor peak (counting allocator)"
    cargo test --release -q --test build_peak
}

stage_ordering() {
    local profile f
    echo "--- pattern-only symbolic: no symmetrised copy or pair buffer in crates/symbolic/src"
    for f in crates/symbolic/src/*.rs; do
        # Non-test code only: a file stops at its first #[cfg(test)].
        if awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f" |
            grep -E 'symmetrize\(|ensure_diagonal\(|pairs_col'; then
            echo "ci.sh: symbolic factorisation walks A's pattern and writes L in place;" \
                "it builds no symmetrised copy of A and no (row, column) pair buffer" >&2
            return 1
        fi
    done
    echo "--- pattern-only ordering: no symmetrised copy or list-of-lists graph in crates/reorder/src"
    for f in crates/reorder/src/*.rs; do
        if awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f" |
            grep -E 'symmetrize\(|Vec<Vec<usize>>'; then
            echo "ci.sh: every ordering reads one pattern-only graph of A + Aᵀ built from A's" \
                "pattern; it builds no symmetrised copy of A and no Vec<Vec<usize>> adjacency" >&2
            return 1
        fi
    done
    for profile in "" --release; do
        echo "--- ordering properties and granularity ratchet, profile: ${profile:-debug}"
        cargo test $profile -q -p pangulu-reorder -p pangulu-symbolic
        cargo test $profile -q --test granularity
    done
}

# The evaluation CSVs that repeat byte for byte from run to run.
figures_exact=(table3 fig03_supernode_sizes fig05_sync_ratio fig12_scaling fig13_sync128
    mapping_study time_breakdown weak_scaling)
# file=ERE: the columns of the other CSVs that repeat, by header name.
figures_columns=(
    'fig04_gemm_density=matrix|density_bin|pct_.*'
    'fig07_kernels=matrix|kernel|variant|feature'
    'fig08_calibration=kernel|small_variant|big_variant|threshold_field'
    'fig08_validation=kernel|instances'
    'fig11_symbolic=matrix|gp_nnz_lu|sym_nnz_lu'
    'fig14_ablation=matrix|baseline'
    'ordering_study=matrix|.*_nnz_lu|.*_blocks|.*_tasks|auto_method'
    'fault_study=matrix|severity|messages'
)

# Prints the columns of CSV $1 whose header name matches the ERE $2 in
# full, in file order; fails if one of $2's alternatives names no column.
csv_columns() {
    awk -F, -v re="$2" '
        NR == 1 {
            n = split(re, alt, "|")
            for (a = 1; a <= n; a++) {
                hit = 0
                for (i = 1; i <= NF; i++) if ($i ~ "^(" alt[a] ")$") hit = 1
                if (!hit) { print FILENAME ": no column matches " alt[a] > "/dev/stderr"; exit 1 }
            }
            for (i = 1; i <= NF; i++) if ($i ~ "^(" re ")$") keep[++m] = i
        }
        { line = $keep[1]; for (k = 2; k <= m; k++) line = line "," $keep[k]; print line }
    ' "$1"
}

stage_figures() {
    local out="$log_dir/figures-data" t0 name spec cols fail=0
    cargo build --release -q -p pangulu-bench --bin figures
    rm -rf "$out"
    mkdir -p "$out"
    t0=$SECONDS
    PANGULU_DATA_DIR="$out" "${CARGO_TARGET_DIR:-target}/release/figures" >/dev/null
    echo "--- figures ran in $((SECONDS - t0)) s"
    for name in "${figures_exact[@]}"; do
        if ! diff "data/$name.csv" "$out/$name.csv" >"$out/$name.diff"; then
            echo "ci.sh: data/$name.csv differs from a fresh run ($out/$name.diff):" >&2
            head -n 20 "$out/$name.diff" >&2
            fail=1
        fi
    done
    for spec in "${figures_columns[@]}"; do
        name="${spec%%=*}" cols="${spec#*=}"
        if ! csv_columns "data/$name.csv" "$cols" >"$out/$name.want" ||
            ! csv_columns "$out/$name.csv" "$cols" >"$out/$name.got" ||
            ! diff "$out/$name.want" "$out/$name.got" >"$out/$name.diff"; then
            echo "ci.sh: data/$name.csv columns $cols differ from a fresh run:" >&2
            head -n 20 "$out/$name.diff" >&2
            fail=1
        fi
    done
    if ((fail)); then
        echo "ci.sh: a figure moved; if on purpose, commit the regenerated CSVs" \
            "(cargo run --release -p pangulu-bench --bin figures) and say why" >&2
        return 1
    fi
    echo "--- ${#figures_exact[@]} CSVs byte-identical, ${#figures_columns[@]} on their stable columns"
}

stage_benchmark_api() {
    cargo test --release --offline --manifest-path benchmark/Cargo.toml
}

all_stages=(fmt clippy build test doc panics trace sched comm precision solve kernels ordering
    figures benchmark-api)

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
