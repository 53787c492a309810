#!/usr/bin/env bash
# Runs two full untraced sets of the same build and compares them: a
# metric x workload table of both medians and their ratio. Exits non-zero
# if a pair disagrees by more than its bound in BENCHMARK.json or an exact
# count does not repeat.
#
#   benchmark/repeat.sh [--seed N]
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

out=benchmark/out/repeat
mkdir -p "$out"
for set in A B; do
    benchmark/run.sh "$@" --out "$out/$set" >"$out.$set.log" 2>&1 || {
        cat "$out.$set.log" >&2
        exit 1
    }
done
exec "${CARGO_TARGET_DIR:-target}/release/pangulu-benchmark" compare "$out/A" "$out/B" --bounds BENCHMARK.json
