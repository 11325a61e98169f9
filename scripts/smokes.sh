#!/usr/bin/env bash
# The canal-bench invariant smokes, shared by scripts/check.sh and CI:
# one `<bin>|<extra args>|<invariant the bin gates>` row per smoke.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p target

while IFS='|' read -r bin extra gates; do
    echo "==> $bin smoke ($gates)"
    # shellcheck disable=SC2086  # $extra is a flag list, split on purpose
    cargo run -q --release -p canal-bench --bin "$bin" -- --fast $extra >/dev/null
done <<'SMOKES'
chaos||availability: a service with a live replica in a live AZ serves 100% under fault injection
surge||tenant isolation: well-behaved tenants hold their no-surge P99 while the surging tenant degrades gracefully
traceview||tracing: tail sampling keeps the error/P999 traces at a <=2% head rate, span-evidence RCA beats trend correlation
rollout||config rollout: a poisoned version is NACKed at the canary and never committed, rollback is automatic, fail-static serving
rotation|--json target/rotation.json|cert rotation: the tenant re-keys with no loss elsewhere, a clock-skewed bundle is NACKed and rolled back, revocation sticks
drill|--json target/drill.json|disaster drill: the drain loses zero sessions, the gray gateway is quarantined with no false positives, a partition causes no rollback, one version after heal
policy|--json target/policy.json|tenant policy: a poisoned cut is never committed, a wrong-scope deny-all is contained to the canary, compiled tables equal the reference, no cross-tenant match
failover|--json target/failover.json|controller failover: a crash mid-wave resumes from the journal re-pushing only orphans, a crashed rollback is completed, every zombie push is epoch-fenced
SMOKES
