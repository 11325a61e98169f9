#!/usr/bin/env bash
# Full local gate: everything CI would run, in dependency order.
# Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")/.."

# Lint first: canal-lint is std-only and builds in seconds, so contract
# violations surface before the full workspace build. The JSON report is
# written either way (CI archives it as an artifact).
echo "==> canal-lint (determinism / layering / panic-policy / state discipline)"
mkdir -p target
cargo run -q -p canal-lint -- --json > target/canal-lint.json || true
cargo run -q -p canal-lint

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace"
cargo test --workspace -q

# Chaos smoke: a compressed fault-injection run. The binary exits nonzero
# if the availability invariant breaks (a service with >=1 live replica in
# a live AZ must serve 100% on the resilient datapath). The dated BENCH
# throughput point lands in target/ (CI archives it).
echo "==> chaos smoke (availability invariant under fault injection)"
cargo run -q --release -p canal-bench --bin chaos -- --fast \
    --bench "target/BENCH_$(date +%F)_fig8.json" >/dev/null

# Surge smoke: a compressed single-tenant 20x overload run. The binary
# exits nonzero unless well-behaved tenants hold their no-surge P99 within
# a bounded factor while the surging tenant degrades gracefully. The dated
# BENCH throughput point lands in target/ (CI archives it).
echo "==> surge smoke (tenant-isolation invariant under overload)"
cargo run -q --release -p canal-bench --bin surge -- --fast \
    --bench "target/BENCH_$(date +%F)_surge.json" >/dev/null

# Trace smoke: a compressed run of the tracing pipeline over the fault
# timeline. The binary exits nonzero unless tail sampling retains the
# error/P999 traces at a <=2% head rate, canal's telemetry cost stays
# below the sidecar baseline, the span-evidence RCA beats trend
# correlation, and double runs are bit-identical.
echo "==> trace smoke (sampling-retention + span-RCA invariants)"
cargo run -q --release -p canal-bench --bin traceview -- --fast >/dev/null

# Rollout smoke: a compressed poisoned-config blast-radius run. The binary
# exits nonzero unless the poisoned version is never committed anywhere
# under canal (NACKed at the canary, fail-static serving keeps availability
# at 100%), rollback is automatic and far faster than operator detection,
# and a valid-but-degrading change is contained to the canary wave.
echo "==> rollout smoke (canary blast-radius + fail-static invariants)"
cargo run -q --release -p canal-bench --bin rollout -- --fast >/dev/null

# Rotation smoke: a compressed cert-rotation handshake-storm run. The
# binary exits nonzero unless the rotating tenant fully re-keys with zero
# availability loss for everyone else, the clock-skew-poisoned bundle is
# NACKed at the canary (zero commits, automatic rollback, clean retry),
# the compromise revocation sticks, the key-server backlog drains, and
# double runs are bit-identical. The JSON report lands in target/ (CI
# archives it as an artifact).
echo "==> rotation smoke (cert-lifecycle + handshake-storm invariants)"
cargo run -q --release -p canal-bench --bin rotation -- --fast \
    --json target/rotation.json >/dev/null

# Drill smoke: a compressed disaster drill — gray gateway, asymmetric
# control-plane partition during an in-flight rollout, planned gateway
# drain, heal. The binary exits nonzero unless the drain loses zero
# established sessions, the gray gateway is quarantined within a bounded
# window with zero false positives, the partition causes no rollback, the
# fleet converges on exactly one config version after heal, and double
# runs are bit-identical. The JSON report and the dated BENCH throughput
# point both land in target/ (CI archives them as artifacts).
echo "==> drill smoke (gray-failure + partition + drain invariants)"
cargo run -q --release -p canal-bench --bin drill -- --fast \
    --json target/drill.json \
    --bench "target/BENCH_$(date +%F).json" >/dev/null

# Policy smoke: a compressed policy-plane blast-radius run. The binary
# exits nonzero unless the poisoned policy cut is NACKed at the canary and
# never committed anywhere (fail-static serving), the wrong-scope deny-all
# change is contained to the canary and rolled back off the deny-spike
# health gate, compiled tables agree with the naive reference
# bit-for-bit, overlapping tenant address spaces never cross-match, and
# double runs are bit-identical. The JSON report and the dated BENCH
# throughput point both land in target/ (CI archives them as artifacts).
echo "==> policy smoke (tenant-isolation + blast-radius invariants)"
cargo run -q --release -p canal-bench --bin policy -- --fast \
    --json target/policy.json \
    --bench "target/BENCH_$(date +%F)_policy.json" >/dev/null

# Failover smoke: a compressed controller-failover drill. The binary exits
# nonzero unless a crash mid-wave is resumed from the write-ahead journal
# with only the orphaned pushes re-sent (zero duplicate canary exposure)
# and exactly one converged version, a crash mid-rollback of a poisoned
# rollout is completed by the next incarnation, every zombie-incarnation
# push is epoch-fenced by the data plane with zero divergence, and double
# runs are bit-identical. The JSON report and the dated BENCH throughput
# point both land in target/ (CI archives them as artifacts).
echo "==> failover smoke (journal-recovery + epoch-fencing invariants)"
cargo run -q --release -p canal-bench --bin failover -- --fast \
    --json target/failover.json \
    --bench "target/BENCH_$(date +%F)_failover.json" >/dev/null

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

echo "All checks passed."
