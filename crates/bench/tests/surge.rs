//! Surge-run isolation-invariant tests (ISSUE acceptance
//! criteria for the gateway overload-control experiment).

use canal_bench::experiments::overload::{
    run_surge, SurgeParams, SURGER_GOODPUT_FLOOR, VICTIM_P99_BOUND,
};

#[test]
fn canal_holds_the_isolation_invariant() {
    let params = SurgeParams::fast();
    for seed in [42, 7, 1001] {
        let outcome = run_surge(seed, &params);
        assert!(
            outcome.isolation_ok(),
            "seed {seed}: canal must bound victim p99 and keep surger goodput graceful"
        );
        let canal = outcome.placement("canal").expect("canal runs");
        assert!(
            canal.victim_p99_ratio() <= VICTIM_P99_BOUND,
            "seed {seed}: victim p99 inflated {}x",
            canal.victim_p99_ratio()
        );
        assert!(
            canal.surger().goodput_ratio() >= SURGER_GOODPUT_FLOOR,
            "seed {seed}: surger goodput collapsed to {}",
            canal.surger().goodput_ratio()
        );
        assert!(canal.surger().shed > 0, "seed {seed}: shedding engaged");
    }
}

#[test]
fn shared_fifo_melts_and_static_split_wastes() {
    let outcome = run_surge(42, &SurgeParams::fast());
    let canal = outcome.placement("canal").expect("canal runs");
    let ambient = outcome.placement("ambient").expect("ambient runs");
    let sidecar = outcome.placement("istio-sidecar").expect("sidecar runs");
    assert!(
        ambient.victim_p99_ratio() > canal.victim_p99_ratio() * 4.0,
        "a shared FIFO must punish victims far worse than fair queues: {} vs {}",
        ambient.victim_p99_ratio(),
        canal.victim_p99_ratio()
    );
    assert!(
        canal.surger().goodput_ratio() > sidecar.surger().goodput_ratio(),
        "work conservation: canal must serve more surge than a static core split"
    );
    assert!(
        sidecar.victim_p99_ratio() <= 2.0,
        "statically partitioned sidecars isolate victims"
    );
}

#[test]
fn brownout_and_monitor_engage_only_under_surge() {
    let outcome = run_surge(42, &SurgeParams::fast());
    let canal = outcome.placement("canal").expect("canal runs");
    assert!(canal.surge.brownout_engaged, "brownout engages under surge");
    assert!(
        !canal.baseline.brownout_engaged,
        "brownout stays off at baseline"
    );
    assert!(
        canal.surge.overload_alerts > 0,
        "overload signals reach the control-plane monitor"
    );
    assert_eq!(
        canal.baseline.overload_alerts, 0,
        "the monitor stays calm at baseline load"
    );
}
