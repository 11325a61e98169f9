#!/usr/bin/env bash
# The size ROADMAP's open-items table tracks: lines of every `.rs` file under
# `crates src tests examples` (tests included, `benchmark/` and `target/`
# not), in total and per crate. A report for simplicity PRs to quote, not a
# gate.
set -euo pipefail
cd "$(dirname "$0")/.."

lines() { find "$@" -name '*.rs' -print0 | xargs -0 cat | wc -l; }

for dir in crates/* src tests examples; do
    printf '%7d  %s\n' "$(lines "$dir")" "$dir"
done
printf '%7d  total\n' "$(lines crates src tests examples)"
