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
# is registered in .git) and built under target/pairs/<sha>/, the working
# tree into target/pairs/change, both --release --offline, once for all the
# workloads. Pair i runs both sides with --seed i for BENCHMARK.json's
# run_seconds, parent first when i is odd, change first when it is even.
# Per workload every run is printed, then both sides' failed share of the
# operations attempted, then for each end-to-end metric both sides' median
# and quartiles, the pairs the change won and tied, and the verdict: a gain
# needs nine tenths of the pairs that were not ties and a median gap wider
# than the parent's own interquartile spread; short of that, a parent spread
# wider than the metric's bound leaves it unresolved, and a median worse than
# the parent's by more than the bound is a regression. Exits 1 if any metric
# of any workload regressed or the change failed a larger share of its
# operations than the parent. Not part of check.sh.
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
if [ ! -d "$parent/src" ]; then
    mkdir -p "$parent/src"
    git archive "$sha" | tar -x -C "$parent/src"
fi
echo "==> building parent $sha and the working tree" >&2
(cd "$parent/src" && CARGO_TARGET_DIR="$parent/target" \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
CARGO_TARGET_DIR="$root/target/pairs/change" \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

# One run of $workload: prints "<side> <pair> <metric> <value>" per metric,
# and attempted and failed.
run() {
    local side=$1 pair=$2 dir bin
    case $side in
    parent) dir=$parent/src bin=$parent/target/release/canal-benchmark ;;
    change) dir=$root bin=$root/target/pairs/change/release/canal-benchmark ;;
    esac
    (cd "$dir" && "$bin" --workload "$workload" --seed "$pair" --seconds "$seconds" --trace 0 2>&1) |
        awk -v side="$side" -v pair="$pair" -v names="$metrics" '
            BEGIN { n = split(names, f, " "); for (i = 1; i <= n; i += 3) want[f[i]] = 1 }
            / attempted, / { print side, pair, "attempted", $(NF - 3); print side, pair, "failed", $(NF - 1) }
            /^  [a-z_0-9.]+ +[-0-9.e+]+ / && ($1 in want) { print side, pair, $1, $2 }'
}

status=0
for workload in "$@"; do
    runs=$parent/runs-$workload.txt
    : >"$runs"
    for pair in $(seq 1 "$pairs"); do
        if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            run "$side" "$pair" | tee -a "$runs" | awk '
                { line = line " " $3 "=" $4; side = $1; pair = $2 }
                END { printf "pair %2d %-6s seed %d:%s\n", pair, side, pair, line }'
        done
    done

    echo
    echo "$workload, $pairs pairs of $seconds s, parent $sha against the working tree"
    awk -v names="$metrics" '
        function sort(a, n,    i, j, t) {
            for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
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
            }
            exit bad
        }' "$runs" || status=1
    echo
done
exit $status
