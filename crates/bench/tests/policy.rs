//! Policy-run blast-radius/isolation invariant tests
//! (ISSUE acceptance criteria for the tenant policy-plane experiment).

use canal_bench::experiments::policy::{run_policy, PolicyParams};

#[test]
fn canal_holds_the_policy_blast_radius_invariant() {
    let params = PolicyParams::fast();
    for seed in [42, 7, 1001] {
        let outcome = run_policy(seed, &params);
        assert!(
            outcome.policy_ok(),
            "seed {seed}: containment / isolation / differential / cost invariant violated"
        );
        let canal = outcome.blast.arm("canal").expect("canal arm runs");
        assert_eq!(
            canal.exposed, 0,
            "seed {seed}: the poisoned policy must never commit anywhere"
        );
        assert_eq!(
            canal.errors, 0,
            "seed {seed}: fail-static tables keep serving through the NACKed push"
        );
        assert!(
            outcome.blast.nacks > 0,
            "seed {seed}: the canary gateways must NACK the poisoned spec"
        );
        assert!(
            outcome.deny_exposed >= 1 && outcome.deny_exposed <= outcome.blast.canary_size,
            "seed {seed}: the deny-all change reached {} gateways, canary is {}",
            outcome.deny_exposed,
            outcome.blast.canary_size
        );
        assert!(
            outcome.policy_alerts >= 1,
            "seed {seed}: the deny spike must surface as a PolicyDeny alert"
        );
    }
}

#[test]
fn compiled_engine_gates_hold() {
    let params = PolicyParams::fast();
    let outcome = run_policy(42, &params);
    assert_eq!(
        outcome.cross_tenant_matches, 0,
        "overlapping tenant address spaces must never cross-match"
    );
    assert!(outcome.isolation_probes > 0, "the isolation gate must probe");
    assert_eq!(
        outcome.compiled_digest, outcome.reference_digest,
        "compiled tables must agree with the naive reference bit-for-bit"
    );
    assert!(
        outcome.compiled_ops < outcome.naive_ops,
        "compiled lookup ops ({}) must beat the O(rules) scan ({})",
        outcome.compiled_ops,
        outcome.naive_ops
    );
}
