#!/usr/bin/env bash
# Panic-site ratchet: counts `.unwrap()`, `.expect(`, `panic!(`,
# `unreachable!(`, `assert!(`, `assert_eq!(` and `assert_ne!(` in the
# non-test library code of every crate and compares each count against
# its ceiling in scripts/panic_ceiling.txt.
#
#   * Scope: crates/<name>/src/**/*.rs per crate (the vendored shims
#     under crates/shims/ are excluded) and src/**/*.rs as the root
#     package `pangulu`.
#   * Test code does not count: a file stops counting at its first
#     `#[cfg(test)]` line. Integration tests live outside src/ anyway.
#   * `debug_assert!` and its `_eq` / `_ne` forms do not count: release
#     builds compile them out.
#   * A count above its ceiling fails the check. A count below it passes
#     and prints the new value, so the ceiling can be lowered in the same
#     change that removed the sites.
#   * Beside each crate's count it prints the crate's non-test line count
#     (every line before that first `#[cfg(test)]`), and the total, so a
#     change can state the lines it added or removed.
set -euo pipefail
cd "$(dirname "$0")/.."

ceiling_file="scripts/panic_ceiling.txt"

# Occurrences and lines in one file, up to its first #[cfg(test)].
count_file() {
    awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        {
            lines++
            n += gsub(/\.unwrap\(\)/, "&")
            n += gsub(/\.expect\(/, "&")
            n += gsub(/panic!\(/, "&")
            n += gsub(/unreachable!\(/, "&")
            n += gsub(/(^|[^_[:alnum:]])assert(_eq|_ne)?!\(/, "&")
        }
        END { print n + 0, lines + 0 }
    ' "$1"
}

count_dir() {
    local sites=0 lines=0 f n l
    while IFS= read -r f; do
        read -r n l < <(count_file "$f")
        sites=$((sites + n)) lines=$((lines + l))
    done < <(find "$1" -name '*.rs' -type f | sort)
    echo "$sites $lines"
}

current_counts() {
    local dir
    echo "pangulu $(count_dir src)"
    for dir in crates/*/; do
        dir="${dir%/}"
        [[ "$dir" == crates/shims ]] && continue
        [[ -d "$dir/src" ]] || continue
        echo "${dir#crates/} $(count_dir "$dir/src")"
    done
}

declare -A ceiling
while read -r name limit; do
    [[ -z "$name" || "$name" == \#* ]] && continue
    ceiling[$name]=$limit
done <"$ceiling_file"

fail=0
total=0
total_lines=0
while read -r name count lines; do
    total=$((total + count))
    total_lines=$((total_lines + lines))
    limit="${ceiling[$name]:-}"
    if [[ -z "$limit" ]]; then
        echo "panic-sites: $name: $count sites, no ceiling in $ceiling_file (add one)" >&2
        fail=1
    elif ((count > limit)); then
        echo "panic-sites: FAIL: $name: $count sites, ceiling $limit (+$((count - limit)))" >&2
        fail=1
    elif ((count < limit)); then
        echo "panic-sites: $name: $count sites, below ceiling $limit — lower it to $count;" \
            "$lines non-test lines"
    else
        echo "panic-sites: $name: $count sites (at ceiling); $lines non-test lines"
    fi
done < <(current_counts)
echo "panic-sites: $total sites in total; $total_lines non-test lines in total"
exit "$fail"
