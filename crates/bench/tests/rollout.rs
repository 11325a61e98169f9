//! Rollout-run blast-radius invariant tests (ISSUE
//! acceptance criteria for the safe config rollout experiment).

use canal_bench::experiments::rollout::{run_rollout, RolloutParams};

#[test]
fn canal_holds_the_safe_rollout_invariant() {
    let params = RolloutParams::fast();
    for seed in [42, 7, 1001] {
        let outcome = run_rollout(seed, &params);
        assert!(
            outcome.rollout_ok(),
            "seed {seed}: blast radius / rollback / fail-static invariant violated"
        );
        let canal = outcome.blast.arm("canal").expect("canal arm runs");
        assert_eq!(
            canal.exposed, 0,
            "seed {seed}: the poisoned version must never commit anywhere"
        );
        assert_eq!(
            canal.errors, 0,
            "seed {seed}: fail-static serving keeps availability at 100%"
        );
        assert!(
            outcome.blast.nacks > 0,
            "seed {seed}: the canary gateways must NACK the poisoned spec"
        );
        assert!(
            outcome.blast.rollbacks >= 2,
            "seed {seed}: NACK and health-gate rollbacks are automatic"
        );
        assert!(
            outcome.rollback_targets_good,
            "seed {seed}: every rollback must restore a converged, unpoisoned version"
        );
        assert!(
            outcome.degrade_exposed <= outcome.blast.canary_size,
            "seed {seed}: the degrading change reached {} gateways, canary is {}",
            outcome.degrade_exposed,
            outcome.blast.canary_size
        );
    }
}

#[test]
fn blind_pushes_burn_the_fleet() {
    let outcome = run_rollout(42, &RolloutParams::fast());
    let canal = outcome.blast.arm("canal").expect("canal arm runs");
    let ambient = outcome.blast.arm("ambient-waypoint").expect("ambient arm runs");
    let istio = outcome.blast.arm("istio-full-push").expect("istio arm runs");
    assert_eq!(
        istio.exposed, outcome.blast.fleet,
        "a full blind push exposes the whole fleet"
    );
    assert!(
        ambient.exposed > 0 && ambient.exposed < istio.exposed,
        "a halted sequential push exposes a strict subset: {} of {}",
        ambient.exposed,
        istio.exposed
    );
    assert!(istio.errors > 0, "the exposed fleet burns error budget");
    assert!(ambient.errors > 0, "partial exposure still burns budget");
    assert!(
        canal.ttr_s < istio.ttr_s / 10.0,
        "automatic rollback ({} s) must be far faster than operator detection ({} s)",
        canal.ttr_s,
        istio.ttr_s
    );
    assert!(
        canal.availability() > ambient.availability()
            && ambient.availability() > istio.availability(),
        "availability must rank canal > ambient > istio under the poisoned change"
    );
}

#[test]
fn blocked_push_fails_static_and_healthy_rollout_converges() {
    let outcome = run_rollout(42, &RolloutParams::fast());
    assert_eq!(
        outcome.blocked_availability, 1.0,
        "gateways keep serving their running config through the push blackout"
    );
    assert!(
        outcome.blocked_timeout_rollback,
        "the rollout stalled by the blackout must roll back on ack timeout"
    );
    assert!(
        outcome.blast.healthy_converged && outcome.blast.healthy_exposed == outcome.blast.fleet,
        "the healthy rollout converges fleet-wide"
    );
    assert!(
        outcome.blast.healthy_waves >= 3,
        "exponential waves: canary plus at least two promotions"
    );
    assert!(
        outcome.rollout_alerts >= 4,
        "rollout flights and rollbacks surface as monitor alerts"
    );
}
