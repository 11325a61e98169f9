//! Chaos-run determinism and invariant tests (ISSUE acceptance criteria).
//!
//! These live in the bench crate because the layering DAG forbids the root
//! facade from depending on `canal-bench`.

use canal_bench::experiments::chaos::{run_chaos, run_retry_storm, ChaosParams};

#[test]
fn canal_serves_every_request_with_a_live_replica() {
    let params = ChaosParams::fast();
    for seed in [42, 7, 1001] {
        let outcome = run_chaos(seed, &params);
        let canal = outcome.arch("canal").expect("canal runs");
        assert_eq!(
            canal.invariant_violations, 0,
            "seed {seed}: a service with >=1 live replica in a live AZ must serve 100%"
        );
        assert_eq!(
            canal.offered, canal.succeeded,
            "seed {seed}: the scripted plan always leaves a live replica, so canal \
             availability must be 100%"
        );
    }
}

#[test]
fn per_domain_ttr_emitted_for_all_three_architectures() {
    let outcome = run_chaos(42, &ChaosParams::fast());
    assert_eq!(outcome.archs.len(), 3);
    for arch in &outcome.archs {
        for domain in ["replica", "backend", "az"] {
            let inc = arch
                .incidents
                .iter()
                .find(|i| i.domain == domain)
                .unwrap_or_else(|| panic!("{}: missing {domain} incident", arch.name));
            assert!(
                inc.ttr_ms.is_finite() && inc.ttr_ms > 0.0,
                "{}: {domain} TTR must be measured",
                arch.name
            );
        }
    }
}

#[test]
fn retry_budget_cuts_storm_amplification() {
    let params = ChaosParams::fast();
    let (no_budget, budgeted) = run_retry_storm(42, &params);
    assert!(
        budgeted.retry_amplification() < no_budget.retry_amplification() - 0.01,
        "budget must measurably reduce retry amplification: off {} vs on {}",
        no_budget.retry_amplification(),
        budgeted.retry_amplification()
    );
    assert!(budgeted.budget_rejected > 0, "the budget actually engaged");
    assert_eq!(no_budget.budget_rejected, 0, "budget off never rejects");
    assert_eq!(
        no_budget.invariant_violations, 0,
        "total outage has no live replica: storm failures are not violations"
    );
    assert_eq!(
        budgeted.invariant_violations, 0,
        "the budget must never reject a retry that a live replica needed"
    );
}

#[test]
fn retry_storm_is_deterministic() {
    let params = ChaosParams::fast();
    let (off_a, on_a) = run_retry_storm(7, &params);
    let (off_b, on_b) = run_retry_storm(7, &params);
    assert_eq!(off_a.attempts, off_b.attempts);
    assert_eq!(on_a.attempts, on_b.attempts);
    assert_eq!(on_a.budget_rejected, on_b.budget_rejected);
}

#[test]
fn resilient_datapath_beats_single_attempt_baseline() {
    let outcome = run_chaos(42, &ChaosParams::fast());
    let canal = outcome.arch("canal").expect("canal runs");
    let sidecar = outcome.arch("istio-sidecar").expect("sidecar runs");
    assert!(canal.availability() > sidecar.availability());
    assert!(canal.retry_amplification() > 1.0, "retries actually fired");
    assert!(
        (sidecar.retry_amplification() - 1.0).abs() < 1e-12,
        "the single-attempt baseline never retries"
    );
    for domain in ["replica", "backend", "az"] {
        let ttr = |a: &canal_bench::experiments::chaos::ArchOutcome| {
            a.incidents
                .iter()
                .find(|i| i.domain == domain)
                .map(|i| i.ttr_ms)
                .unwrap_or(f64::INFINITY)
        };
        assert!(
            ttr(canal) < ttr(sidecar),
            "{domain}: datapath retries must recover faster than control-plane detection"
        );
    }
}
