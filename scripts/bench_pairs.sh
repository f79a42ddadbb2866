#!/usr/bin/env bash
# Paired parent/change timing of the benchmark's end-to-end metrics: the
# loop PRs 13-15, 22 and 23 typed by hand.
#
#   scripts/bench_pairs.sh BASE [PAIRS [WORKLOAD...]]   # PAIRS defaults to 10
#   SEED=11 scripts/bench_pairs.sh HEAD 3 churn_mesh     # a held-out seed
#
# SEED (environment, default 7) is the world seed of every run: the
# default is the seed the benchmark itself runs, and another checks that a
# gain is not an artefact of that one world.
#
# Builds the `bench` binary of BASE (exported with `git archive` under
# target/bench-pairs/, its own target directory — as parent_diff.sh builds
# `repro`) and of the working tree, then runs, per workload of
# BENCHMARK.json (or the ones named), PAIRS pairs of
# `bench run --workload W --seed $SEED --seconds S --trace 0`, base and change
# back to back, swapping which side goes first every pair: this host has
# minutes-long slow phases, and a pair sees the same one. S is
# BENCHMARK.json's `run_seconds`, the run length the benchmark itself times.
#
# For each (workload, end-to-end metric of BENCHMARK.json) it prints every
# run, both medians, both quartiles (Python's exclusive
# `statistics.quantiles`, as benchmark/src/stats.rs) and the pairs the
# change won, then one table row per (workload, metric). The change "wins"
# a metric when it won at least 9 of 10 pairs and its median beats the
# base's by more than the base's interquartile distance — the driver's rule
# for a claimed gain.
#
# Then it runs `--trace 1` once per side and workload and prints
# `node.world.events` and `alloc.count_per_event` base -> change: counts
# that repeat exactly on any host, so a change's deterministic cost diff
# sits beside its wall-clock pairs. Exits 1 if any run reports a failed
# operation.
#
# Not run in CI: whether to gate on timing is ROADMAP 7(d)'s decision,
# inside the benchmark.
set -euo pipefail

base=${1:?usage: scripts/bench_pairs.sh BASE [PAIRS [WORKLOAD...]]}
pairs=${2:-10}
shift $(($# < 2 ? $# : 2))
seed=${SEED:-7}
root=$(git rev-parse --show-toplevel)
seconds=$(awk -F'[:,]' '$1 ~ /"run_seconds"/ { gsub(/ /, "", $2); print $2 }' "$root/BENCHMARK.json")
[[ $seconds =~ ^[0-9]+$ ]] || { echo "no run_seconds in BENCHMARK.json" >&2; exit 2; }
work=$root/target/bench-pairs
rm -rf "$work/src" "$work/runs"
mkdir -p "$work/src" "$work/runs"

# `names ARRAY [FIELD]`: the "name" (and FIELD) members of one top-level
# array of BENCHMARK.json, one entry per line.
names() {
    awk -v key="\"$1\":" -v field="\"${2:-name}\":" '
        $1 == key { on = 1; next }
        on && /^  \]/ { exit }
        on && $1 == "\"name\":" { gsub(/[",]/, "", $2); name = $2 }
        on && $1 == field { gsub(/[",]/, "", $2); print name, $2 }
    ' "$root/BENCHMARK.json"
}
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || mapfile -t workloads < <(names workloads | cut -d' ' -f1)
mapfile -t metrics < <(names end_to_end better) # "<name> <lower|higher>"

git -C "$root" archive "$base" | tar -x -C "$work/src"
(cd "$work/src" && CARGO_TARGET_DIR="$work/target" cargo build --release --offline \
    --manifest-path benchmark/Cargo.toml)
(cd "$root" && cargo build --release --offline --manifest-path benchmark/Cargo.toml)
declare -A bin=(
    [base]=$work/target/release/bench
    [change]=$root/benchmark/target/release/bench
)

failed=0
for w in "${workloads[@]}"; do
    for ((i = 1; i <= pairs; i++)); do
        order=(base change)
        ((i % 2)) || order=(change base)
        for side in "${order[@]}"; do
            out=$work/runs/$w.$side.$i.txt
            if ! "${bin[$side]}" run --workload "$w" --seed "$seed" --seconds "$seconds" \
                --trace 0 >"$out" || ! grep -q '^  ops_failed  *0$' "$out"; then
                echo "FAILED: $w $side pair $i (see $out)" >&2
                failed=1
            fi
        done
    done
done

for w in "${workloads[@]}"; do
    for side in base change; do
        out=$work/runs/$w.$side.trace.txt
        if ! "${bin[$side]}" run --workload "$w" --seed "$seed" --seconds "$seconds" \
            --trace 1 >"$out" || ! grep -q '^  ops_failed  *0$' "$out"; then
            echo "FAILED: $w $side traced run (see $out)" >&2
            failed=1
        fi
    done
done

# `values W SIDE METRIC`: the metric of every run of one side, in pair order.
values() {
    for ((i = 1; i <= pairs; i++)); do
        awk -v m="$3" '$1 == m { print $2 }' "$work/runs/$1.$2.$i.txt"
    done
}
# `summary`: reads "<base> <change>" pairs and a direction; prints median,
# Q1 and Q3 of each side and the pairs the change won.
summary() {
    awk -v better="$1" '
        function sort(a, n,   i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        }
        function median(a, n) { return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2 }
        function cut(a, n, i,   m, j, d) {
            m = n + 1; j = int(i * m / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
            d = i * m - j * 4; return (a[j] * (4 - d) + a[j + 1] * d) / 4
        }
        { b[NR] = $1; c[NR] = $2; won += better == "lower" ? $2 < $1 : $2 > $1 }
        END {
            n = NR; sort(b, n); sort(c, n)
            printf "%.6g %.6g %.6g %.6g %.6g %.6g %d\n", median(b, n), cut(b, n, 1), cut(b, n, 3),
                median(c, n), cut(c, n, 1), cut(c, n, 3), won
        }'
}

rows=()
for w in "${workloads[@]}"; do
    for entry in "${metrics[@]}"; do
        read -r m better <<<"$entry"
        mapfile -t b < <(values "$w" base "$m")
        mapfile -t c < <(values "$w" change "$m")
        read -r bm bq1 bq3 cm cq1 cq3 won < <(paste -d' ' <(printf '%s\n' "${b[@]}") \
            <(printf '%s\n' "${c[@]}") | summary "$better")
        verdict=$(awk -v bm="$bm" -v cm="$cm" -v iqr="$(awk -v a="$bq1" -v b="$bq3" 'BEGIN { print b - a }')" \
            -v won="$won" -v n="$pairs" -v better="$better" 'BEGIN {
                gap = better == "lower" ? bm - cm : cm - bm
                printf "%+.1f%% %s", (cm - bm) / bm * 100,
                    (won * 10 >= 9 * n && gap > iqr) ? "better" : (won * 10 <= n && -gap > iqr) ? "worse" : "-"
            }')
        echo "$w $m ($better is better)"
        echo "  base   ${b[*]}"
        echo "  change ${c[*]}"
        echo "  median $bm -> $cm, base Q1..Q3 $bq1..$bq3, change Q1..Q3 $cq1..$cq3, won $won/$pairs, $verdict"
        rows+=("| \`$w\` | \`$m\` | $bm | $cm | ${verdict% *} | $bq1..$bq3 | $cq1..$cq3 | $won/$pairs | ${verdict##* } |")
    done
done
echo
echo "| workload | metric | base median | change median | change | base Q1..Q3 | change Q1..Q3 | pairs won | verdict |"
echo "|---|---|---|---|---|---|---|---|---|"
printf '%s\n' "${rows[@]}"
echo
echo "Traced counts, one run per side:"
echo
echo "| workload | metric | base | change |"
echo "|---|---|---:|---:|"
# `traced W SIDE METRIC`: the metric of one side's traced run.
traced() { awk -v m="$3" '$1 == m { print $2 }' "$work/runs/$1.$2.trace.txt"; }
for w in "${workloads[@]}"; do
    for m in node.world.events alloc.count_per_event; do
        echo "| \`$w\` | \`$m\` | $(traced "$w" base "$m") | $(traced "$w" change "$m") |"
    done
done
exit $failed
