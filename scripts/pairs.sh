#!/usr/bin/env bash
# Alternating pairs of benchmark workloads, a parent commit against the
# working tree: what a PR that claims a gain has to show (the
# `choosing-metrics` guide, section 8, and benchmark/README.md).
#
#   scripts/pairs.sh <parent-ref> <workload>... [pairs=10]
#   scripts/pairs.sh <parent-ref> all [pairs=10]
#
# `all` is every workload BENCHMARK.json names; a last argument that is a
# number is the pair count. The parent is checked out (git archive: nothing
# is registered in .git) to ${TMPDIR:-/tmp}/canal-pairs-<sha>/src and built
# from there into target/pairs/<sha>/target, the working tree into
# target/pairs/change, both --release --offline, once for all the workloads.
# The parent's source lies outside the repository because cargo reads
# .cargo/config.toml from the directories above the one it runs in: built
# under target/, the parent would take the working tree's build settings
# (its target-cpu) and not its own. Pair i runs both sides with --seed i
# for BENCHMARK.json's run_seconds, parent first when i is odd, change first
# when it is even.
# Per workload every run is printed, then both sides' failed share of the
# operations attempted, then for each end-to-end metric both sides' median
# and quartiles, the pairs the change won and tied, and the verdict: a gain
# needs nine tenths of the pairs that were not ties and a median gap wider
# than the parent's own interquartile spread; short of that, a parent spread
# wider than the metric's bound leaves it unresolved, and a median worse than
# the parent's by more than the bound is a regression. Exits 1 if any metric
# of any workload regressed or the change failed a larger share of its
# operations than the parent. Not part of check.sh.
#
# Each run's `# exact` lines (values that repeat exactly for one code and
# seed: per-seed suite digests, allocation and event counts) are kept for
# both sides. Wherever the parent and the change print the same key in the
# same pair (the same --seed) with different values, the workload's table
# is preceded by one `EXACT DIFFERS <workload> <key>` line per key. That is
# what a behaviour-preserving change must not show; it does not change the
# exit status, because a change may move a digest on purpose and re-pin it.
#
# The same table is written as JSON to target/pairs/<sha>/point.json: the
# parent's and HEAD's commit, the pair count and run_seconds, each side's
# target-cpu (read from the rustflags cargo recorded for its benchmark
# binary; "none" is the target's baseline), then per
# workload both sides' failed and attempted operations, how many `# exact`
# values were compared and whether all were equal (`exact_compared`,
# `exact_equal`: true when none were compared), and per end-to-end metric
# both sides' q1 / median / q3, the pairs won and tied, and the verdict. A
# PR commits its `all` run of it as BENCH_<pr>.json.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD

usage() {
    echo "usage: scripts/pairs.sh <parent-ref> <workload>...|all [pairs=10]" >&2
    exit 2
}
[ $# -ge 2 ] || usage
ref=$1 pairs=10
shift
if [ $# -ge 2 ] && [[ ${!#} =~ ^[0-9]+$ ]]; then
    pairs=${!#}
    set -- "${@:1:$#-1}"
fi
sha=$(git rev-parse --verify --quiet --short=12 "$ref^{commit}") || {
    echo "pairs.sh: $ref is not a commit" >&2
    exit 2
}
known=$(awk '/"workloads"/ { on = 1; next } on && /^ *\]/ { on = 0 } on {
    gsub(/[{}",:]/, " "); printf "%s ", $2 }' BENCHMARK.json)
[ "$*" = all ] && set -- $known
for workload in "$@"; do
    case " $known " in
    *" $workload "*) ;;
    *)
        echo "pairs.sh: BENCHMARK.json has no workload $workload (it has: $known)" >&2
        exit 2
        ;;
    esac
done
seconds=$(awk -F'[:,]' '/"run_seconds"/ { gsub(/ /, "", $2); print $2 }' BENCHMARK.json)
# "name better bound" of each end-to-end metric, all on one line.
metrics=$(awk '/"end_to_end"/ { on = 1; next } on && /^ *\]/ { on = 0 } on {
    gsub(/[{}",:]/, " "); printf "%s %s %s ", $2, $6, $8 }' BENCHMARK.json)

parent=$root/target/pairs/$sha
src=${TMPDIR:-/tmp}/canal-pairs-$sha/src
if [ ! -d "$src" ]; then
    mkdir -p "$src"
    git archive "$sha" | tar -x -C "$src"
fi
echo "==> building parent $sha and the working tree" >&2
(cd "$src" && CARGO_TARGET_DIR="$parent/target" \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
CARGO_TARGET_DIR="$root/target/pairs/change" \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

# The target-cpu in the rustflags cargo fingerprinted a side's benchmark
# binary with: release/canal-benchmark is a hard link to
# deps/canal_benchmark-<hash>, whose fingerprint is canal-benchmark-<hash>.
target_cpu() {
    local bin hash
    bin=$(find "$1/release/deps" -maxdepth 1 -name 'canal_benchmark-*' -samefile "$1/release/canal-benchmark")
    hash=${bin##*-}
    grep -o 'target-cpu=[^"]*' "$1/release/.fingerprint/canal-benchmark-$hash/bin-canal-benchmark.json" |
        tail -n 1 | cut -d= -f2 | grep . || echo none
}
cpu_parent=$(target_cpu "$parent/target")
cpu_change=$(target_cpu "$root/target/pairs/change")
echo "==> target-cpu: parent $cpu_parent, change $cpu_change" >&2

# One run of $workload: prints "<side> <pair> <metric> <value>" per metric,
# and attempted and failed; appends "<side> <pair> <key> <value>" per
# `# exact` line to $exact.
run() {
    local side=$1 pair=$2 dir bin
    case $side in
    parent) dir=$src bin=$parent/target/release/canal-benchmark ;;
    change) dir=$root bin=$root/target/pairs/change/release/canal-benchmark ;;
    esac
    (cd "$dir" && "$bin" --workload "$workload" --seed "$pair" --seconds "$seconds" --trace 0 2>&1) |
        awk -v side="$side" -v pair="$pair" -v names="$metrics" -v exact="$exact" '
            BEGIN { n = split(names, f, " "); for (i = 1; i <= n; i += 3) want[f[i]] = 1 }
            /^# exact / { print side, pair, $3, $4 >>exact; next }
            / attempted, / { print side, pair, "attempted", $(NF - 3); print side, pair, "failed", $(NF - 1) }
            /^  [a-z_0-9.]+ +[-0-9.e+]+ / && ($1 in want) { print side, pair, $1, $2 }'
}

status=0
fragments=()
for workload in "$@"; do
    runs=$parent/runs-$workload.txt
    exact=$parent/exact-$workload.txt
    fragment=$parent/point-$workload.json
    : >"$runs"
    : >"$exact"
    for pair in $(seq 1 "$pairs"); do
        if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            run "$side" "$pair" | tee -a "$runs" | awk '
                { line = line " " $3 "=" $4; side = $1; pair = $2 }
                END { printf "pair %2d %-6s seed %d:%s\n", pair, side, pair, line }'
        done
    done

    echo
    # One "EXACT DIFFERS <workload> <key>" line per differing key, then
    # "<values compared> <keys differing>".
    exact_out=$(awk -v workload="$workload" '
        { v[$1, $2, $3] = $4; seen[$2, $3] = 1 }
        END {
            for (k in seen) {
                split(k, pk, SUBSEP)
                if (!(("parent", pk[1], pk[2]) in v) || !(("change", pk[1], pk[2]) in v)) continue
                compared++
                if (v["parent", pk[1], pk[2]] != v["change", pk[1], pk[2]] && !(pk[2] in told)) {
                    told[pk[2]] = 1
                    differing++
                    print "EXACT DIFFERS", workload, pk[2]
                }
            }
            print compared + 0, differing + 0
        }' "$exact")
    read -r compared differing <<<"${exact_out##*$'\n'}"
    [ "$differing" -eq 0 ] || printf '%s\n' "${exact_out%$'\n'*}" | sort
    echo "$workload, $pairs pairs of $seconds s, parent $sha against the working tree"
    echo "exact: $compared values compared at the same seed, $differing keys differ"
    awk -v names="$metrics" -v workload="$workload" -v json="$fragment" \
        -v compared="$compared" -v equal="$([ "$differing" -eq 0 ] && echo true || echo false)" '
        function sort(a, n,    i, j, t) {
            for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
        }
        function quartiles(x, n) {
            return sprintf("{\"q1\": %.4f, \"median\": %.4f, \"q3\": %.4f}", quantile(x, n, 0.25), quantile(x, n, 0.5), quantile(x, n, 0.75))
        }
        function quantile(a, n, q,    h, lo) {
            h = (n - 1) * q + 1; lo = int(h)
            return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
        }
        { v[$1, $3, $2] = $4; if ($2 > pairs) pairs = $2 }
        END {
            n = split(names, f, " ")
            for (s = 1; s <= 2; s++) {
                side = s == 1 ? "parent" : "change"
                for (p = 1; p <= pairs; p++) { failed[side] += v[side, "failed", p]; attempted[side] += v[side, "attempted", p] }
                share[side] = attempted[side] ? failed[side] / attempted[side] : 1
            }
            bad = share["change"] > share["parent"]
            printf "failed: parent %d of %d, change %d of %d%s\n", failed["parent"], attempted["parent"],
                failed["change"], attempted["change"], bad ? ": the change fails a LARGER SHARE" : ""
            printf "%-14s %-6s %14s %14s %14s   %s\n", "metric", "side", "q1", "median", "q3", "pairs won / tied"
            printf "    \"%s\": {\n      \"failed\": {\"parent\": %d, \"change\": %d},\n      \"attempted\": {\"parent\": %d, \"change\": %d},\n      \"exact_compared\": %d,\n      \"exact_equal\": %s,\n      \"metrics\": {", workload,
                failed["parent"], failed["change"], attempted["parent"], attempted["change"], compared, equal >json
            for (i = 1; i <= n; i += 3) {
                m = f[i]; higher = f[i + 1] == "higher"; bound = f[i + 2]
                won = tied = 0
                for (p = 1; p <= pairs; p++) {
                    a[p] = v["parent", m, p] + 0; b[p] = v["change", m, p] + 0
                    if (b[p] == a[p]) tied++
                    else if ((b[p] > a[p]) == higher) won++
                }
                sort(a, pairs); sort(b, pairs)
                ma = quantile(a, pairs, 0.5); mb = quantile(b, pairs, 0.5)
                iqr = quantile(a, pairs, 0.75) - quantile(a, pairs, 0.25)
                gap = higher ? mb - ma : ma - mb
                # Ties count for neither side.
                if (won >= 0.9 * (pairs - tied) && gap > iqr) verdict = sprintf("GAIN x%.2f", higher ? mb / ma : ma / mb)
                else if (iqr > bound * ma) verdict = "unresolved: the parent spreads wider than the bound"
                else if (-gap > bound * ma) { verdict = sprintf("REGRESSION past the %.0f%% bound", 100 * bound); bad = 1 }
                else verdict = "no gain shown, within the bound"
                printf "%-14s %-6s %14.4f %14.4f %14.4f\n", m, "parent", quantile(a, pairs, 0.25), ma, quantile(a, pairs, 0.75)
                printf "%-14s %-6s %14.4f %14.4f %14.4f   %d / %d of %d: %s\n", "", "change", quantile(b, pairs, 0.25), mb, quantile(b, pairs, 0.75), won, tied, pairs, verdict
                printf "%s\n        \"%s\": {\"parent\": %s, \"change\": %s, \"won\": %d, \"tied\": %d, \"verdict\": \"%s\"}",
                    (i > 1 ? "," : ""), m, quartiles(a, pairs), quartiles(b, pairs), won, tied, verdict >json
            }
            printf "\n      }\n    }" >json
            exit bad
        }' "$runs" || status=1
    fragments+=("$fragment")
    echo
done

point=$parent/point.json
{
    printf '{\n  "parent": "%s",\n  "head": "%s",\n  "pairs": %d,\n  "run_seconds": %s,\n' \
        "$(git rev-parse "$sha")" "$(git rev-parse HEAD)" "$pairs" "$seconds"
    printf '  "target_cpu": {"parent": "%s", "change": "%s"},\n  "workloads": {\n' "$cpu_parent" "$cpu_change"
    sep=
    for fragment in "${fragments[@]}"; do
        printf '%s' "$sep"
        cat "$fragment"
        sep=$',\n'
    done
    printf '\n  }\n}\n'
} >"$point"
echo "wrote $point" >&2
exit $status
