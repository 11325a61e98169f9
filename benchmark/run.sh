#!/usr/bin/env bash
# Build the benchmark and run it; every argument goes to the program.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace] [--out FILE]
#       every workload, three untraced runs each in a process of its own
#       (and a traced one with --trace); prints every metric
#       and writes one JSON document ($CARGO_TARGET_DIR/benchmark/result.json)
#   benchmark/run.sh --workload W [--seed N] [--seconds S] [--trace [0|1]]
#       one run of one workload; the last line of output is its result
#   benchmark/run.sh --compare A.json B.json
#   benchmark/run.sh --smoke [...]      1% of the work
#
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/canal-benchmark" "$@"
