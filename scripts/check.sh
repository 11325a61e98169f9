#!/usr/bin/env bash
# The gate, written once: CI runs this script and nothing else
# (.github/workflows/ci.yml), in dependency order, failing fast on the
# first broken step.
set -euo pipefail
cd "$(dirname "$0")/.."

# Lint first: canal-lint is std-only and builds in seconds, so contract
# violations surface before the full workspace build. The JSON report is
# written either way (CI archives it as an artifact). Layering is read from
# the manifests; that every fold names every field is proved by the build
# below (exhaustive `let Self` destructures, `unused_variables` denied).
echo "==> canal-lint (determinism / manifest layering / panic-policy / state discipline / exhaustive folds)"
mkdir -p target
cargo run -q -p canal-lint -- --json > target/canal-lint.json || true
cargo run -q -p canal-lint

echo "==> cargo build --workspace --release"
cargo build --workspace --release

# A timing, so not in `cargo test`: the ChaCha20 lane kernel against its
# block-at-a-time reference on 16 KiB, failing below 3.0x, and on x86_64
# failing a build without AVX2. Whether LLVM vectorises the lane loop is a
# property of the toolchain, and its width one of the build (the x86-64-v3
# level in .cargo/config.toml, which a RUSTFLAGS in the environment
# replaces); a rustc upgrade that stops, or a build that falls back to
# SSE2, is noticed here and not by the next benchmark re-anchor.
echo "==> ChaCha20 lane kernel is vectorised at AVX2 width (canal-crypto --ignored, release)"
cargo test --release -q -p canal-crypto -- --ignored

# The HTTP parser, VXLAN decoder and fault DSL fuzzers at ten times their
# tier-1 depth (1M cases each on ten seeds): too slow for a debug
# `cargo test`.
echo "==> HTTP parser, VXLAN decoder and fault DSL fuzzers, deep sweeps (props_codecs --ignored, release)"
cargo test --release -q --test props_codecs -- --ignored

# The policy experiment at full scale over four times the seeds tier-1
# runs (0..1024): a healthy rollout must converge at every one of them.
echo "==> policy invariant at every seed of 0..1024 (policy_seeds --ignored, release)"
cargo test --release -q --test policy_seeds -- --ignored

echo "==> cargo test --workspace"
cargo test --workspace -q

# The examples are the end-to-end surface a reader runs first. Each runs
# once in debug, so the event engine's ordering debug-asserts are live; the
# output is discarded, and a panic or nonzero exit fails the gate.
echo "==> examples (each once, debug)"
for example in examples/*.rs; do
    cargo run -q --example "$(basename "$example" .rs)" >/dev/null
done

# Invariant smokes: every robustness scenario of the experiment table (no
# ids under --fast means all of them) at its compressed scale. The runner
# drives each twice and exits nonzero unless the two digests agree and the
# scenario's invariant holds (`--list` states each); target/smoke/ is what
# CI archives.
echo "==> scenario smokes (double run + invariant, --fast)"
mkdir -p target/smoke
cargo run -q --release -p canal-bench --bin experiments -- --fast --json target/smoke >/dev/null

# Drift gate: EXPERIMENTS.md's tables are the runner's output, so a change
# that moves a measured value must regenerate them. This is also the full
# scale run of every experiment: a missed band or a scenario failure exits
# nonzero here.
echo "==> EXPERIMENTS.md drift gate (experiments --markdown)"
cargo run -q --release -p canal-bench --bin experiments -- --markdown > target/experiments.md
diff <(sed -n '/^### /,$p' EXPERIMENTS.md) target/experiments.md

# Benchmark smoke: the committed benchmark (BENCHMARK.json, benchmark/)
# is a package outside the workspace, so nothing above compiles it. The
# smoke run drives every workload at 1% of its work with every output
# checked; the package's own tests hold it to the BENCHMARK.json contract.
# Both build into the same target directory run.sh uses.
echo "==> benchmark smoke (all five workloads, outputs checked) + contract tests"
bash benchmark/run.sh --smoke >/dev/null
bench_target="$(mkdir -p "${CARGO_TARGET_DIR:-target}" && cd "${CARGO_TARGET_DIR:-target}" && pwd)"
(cd benchmark && CARGO_TARGET_DIR="$bench_target" cargo test --release --offline -q)

# Clippy enforces the [workspace.lints] table where available; the lint
# binary above already covers the determinism rules, so a missing clippy
# (minimal toolchains) downgrades to a note rather than a failure.
if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --workspace"
    cargo clippy --workspace --all-targets -q -- -D warnings
else
    echo "==> clippy not installed; skipping (workspace lints still apply on nightly builds)"
fi

# A report, not a gate: the size ROADMAP's open-items table tracks, so every
# simplicity PR quotes the same count.
echo "==> workspace .rs lines (scripts/loc.sh)"
bash scripts/loc.sh

echo "All checks passed."
