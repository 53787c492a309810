#!/usr/bin/env bash
# Builds the benchmark and runs workloads, each in a process of its own.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out DIR]
#
# Without --workload every workload runs, one process after another.
# Without --seconds a workload runs its fixed op count. Exits non-zero if
# the build fails, an op fails, a metric is missing or a workload needs
# more ranks than the machine has hardware threads.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# The repo's shared target/ unless the caller names another directory.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/pangulu-benchmark"

export PANGULU_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export PANGULU_BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@"
    fi
done

status=0
for workload in $("$bin" list); do
    "$bin" --workload "$workload" "$@" || status=1
done
exit "$status"
