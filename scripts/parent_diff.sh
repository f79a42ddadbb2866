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
# exits 1 on any difference. After each `identical=no` it prints
# `identical_outside_footprint=yes/no`: the same comparison with the memory
# accounting removed (the timeseries' `mem_*` columns and members and the
# manifest's `footprint_bytes`), so a change that only moves what an owner
# holds says so. That line is information: the exit status stays 1.
set -euo pipefail

base=${1:-HEAD^}
root=$(git rev-parse --show-toplevel)
work=$root/target/parent-diff
rm -rf "$work/src" "$work/base" "$work/change" "$work/stripped"
mkdir -p "$work/src" "$work/base" "$work/change"

git -C "$root" archive "$base" | tar -x -C "$work/src"
(cd "$work/src" && CARGO_TARGET_DIR="$work/target" cargo build --release --offline -p bitsync-bench)
(cd "$root" && cargo build --release --offline -p bitsync-bench)
declare -A bin=(
    [base]=$work/target/release/repro
    [change]=${CARGO_TARGET_DIR:-$root/target}/release/repro
)

# Copies a file or directory under $work/stripped/<side> without the memory
# accounting and prints the copy's path.
strip_footprint() { # <path> <side>
    local out=$work/stripped/$2 f
    rm -rf "$out"
    mkdir -p "$out"
    cp -r "$1" "$out/"
    while IFS= read -r -d '' f; do
        case $(basename "$f") in
        timeseries.jsonl) sed -E -i 's/,"mem_[a-z_]+":[^,}]*//g' "$f" ;;
        timeseries.csv)
            awk -F, -v OFS=, '
                NR == 1 { for (i = 1; i <= NF; i++) drop[i] = $i ~ /^mem_/ }
                { row = ""; n = 0
                  for (i = 1; i <= NF; i++) if (!drop[i]) row = n++ ? row OFS $i : $i
                  print row }' "$f" >"$f.tmp" && mv "$f.tmp" "$f" ;;
        manifest.json)
            awk '/"footprint_bytes": \{/ { skip = 1; next }
                 skip { if (/^ *\},?$/) skip = 0; next }
                 !/"footprint_bytes": null/' "$f" >"$f.tmp" && mv "$f.tmp" "$f" ;;
        esac
    done < <(find "$out" -type f -print0)
    echo "$out/$(basename "$1")"
}

status=0
verdict() { # <what> <command that succeeds when its last two arguments are identical...>
    local what=$1
    shift
    if "$@" >"$work/diff.txt" 2>&1; then
        echo "$what identical=yes"
    else
        echo "$what identical=no"
        # `head` closes the pipe early on a long diff; that is not a failure.
        sed 's/^/    /' "$work/diff.txt" | head -20 || true
        status=1
        local args=("$@") n=$# base change
        base=$(strip_footprint "${args[n - 2]}" base)
        change=$(strip_footprint "${args[n - 1]}" change)
        if "${args[@]:0:n-2}" "$base" "$change" >/dev/null 2>&1; then
            echo "$what identical_outside_footprint=yes"
        else
            echo "$what identical_outside_footprint=no"
        fi
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
