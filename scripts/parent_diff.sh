#!/usr/bin/env bash
# Byte-identity check of the working tree against a base revision: the
# recipe behaviour-preserving PRs run by hand (CHANGES.md, PRs 17-19).
#
#   scripts/parent_diff.sh [BASE]      # BASE defaults to HEAD^
#
# Builds the `repro` binary of BASE (exported with `git archive` under
# target/parent-diff/, its own target directory) and of the working tree,
# then compares, side by side:
#   - the quick bundle of every registered experiment with every instrument
#     on (`--scale quick --seed 2021 --threads 1 --out .. --trace
#     --sample-interval 60 all`): report, trace, timeseries, attribution,
#     metrics, the manifest and stdout — everything except the wall-clock
#     `perf.*`;
#   - the 14 `repro fuzz` commands of scripts/fuzz_cases.txt (the clean
#     campaign and the 13 `--fault X` cases; CI's resilience-smoke job runs
#     the same file): exit code and output (the `N events, M invariant
#     checks` line, violations, the shrunk scenario) with the wall time cut
#     off.
# Prints one `identical=yes/no` line per experiment and per fuzz row and
# exits 1 on any difference.
set -euo pipefail

base=${1:-HEAD^}
root=$(git rev-parse --show-toplevel)
work=$root/target/parent-diff
rm -rf "$work/src" "$work/base" "$work/change"
mkdir -p "$work/src" "$work/base" "$work/change"

git -C "$root" archive "$base" | tar -x -C "$work/src"
(cd "$work/src" && CARGO_TARGET_DIR="$work/target" cargo build --release --offline -p bitsync-bench)
(cd "$root" && cargo build --release --offline -p bitsync-bench)
declare -A bin=(
    [base]=$work/target/release/repro
    [change]=${CARGO_TARGET_DIR:-$root/target}/release/repro
)

status=0
verdict() { # <what> <command that succeeds when identical...>
    local what=$1
    shift
    if "$@" >"$work/diff.txt" 2>&1; then
        echo "$what identical=yes"
    else
        echo "$what identical=no"
        sed 's/^/    /' "$work/diff.txt" | head -20
        status=1
    fi
}

for side in base change; do
    "${bin[$side]}" --scale quick --seed 2021 --threads 1 --out "$work/$side/run" \
        --trace --sample-interval 60 all >"$work/$side/stdout.txt" 2>"$work/$side/stderr.txt" ||
        { cat "$work/$side/stderr.txt" >&2; exit 1; }
done
for dir in "$work"/change/run/*/; do
    name=$(basename "$dir")
    verdict "experiment $name" diff -r -x 'perf.*' "$work/base/run/$name" "$dir"
done
# The manifest (it names every experiment, so one missing on either side
# shows here) and the text reports.
verdict "manifest" cmp "$work/base/run/manifest.json" "$work/change/run/manifest.json"
verdict "stdout" cmp "$work/base/stdout.txt" "$work/change/stdout.txt"

# The cases CI's resilience-smoke job runs.
while read -r fault runs steps _; do
    armed=(--fault "$fault")
    [ "$fault" = none ] && armed=()
    for side in base change; do
        code=0
        "${bin[$side]}" fuzz --seed 1 --runs "$runs" --max-steps "$steps" "${armed[@]}" \
            --out "$work/$side/fuzz-repro.json" >"$work/$side/fuzz.raw" 2>&1 || code=$?
        {
            echo "exit=$code"
            sed -e 's/, [0-9.]*s$//' -e "s|$work/$side/||" "$work/$side/fuzz.raw"
        } >"$work/$side/fuzz-$fault.txt"
    done
    verdict "fuzz $fault ($(head -1 "$work/change/fuzz-$fault.txt"))" \
        cmp "$work/base/fuzz-$fault.txt" "$work/change/fuzz-$fault.txt"
done < <(grep -v '^#' "$root/scripts/fuzz_cases.txt")
exit $status
