//! Disaster-drill invariant tests (ISSUE acceptance
//! criteria for the gray-failure / partition / drain drill).

use canal_bench::experiments::drill::{run_drill, DrillParams};

#[test]
fn drill_invariant_holds_across_seeds() {
    let params = DrillParams::fast();
    for seed in [42u64, 7, 1001] {
        let outcome = run_drill(seed, &params);
        let c = &outcome.canal;
        assert_eq!(c.force_closed, 0, "seed {seed}: planned drain lost sessions");
        assert!(c.handed_off > 0, "seed {seed}: no daisy-chained hand-offs");
        assert!(c.drain_completed, "seed {seed}: drain never finished");
        assert_eq!(c.quarantines, 1, "seed {seed}: gray gateway not quarantined once");
        assert_eq!(
            c.false_positive_quarantines, 0,
            "seed {seed}: healthy gateway quarantined"
        );
        assert_eq!(c.rollbacks, 0, "seed {seed}: partition misread as a NACK");
        assert!(c.one_converged_version, "seed {seed}: fleet split-brained post-heal");
        assert_eq!(c.last_good, 2, "seed {seed}: wrong converged version");
        assert_eq!(c.lease_violations, 0, "seed {seed}: fail-static past the lease");
        assert!(
            outcome.drill_ok(),
            "seed {seed}: drill invariant violated: {:#?}",
            c
        );
    }
}

#[test]
fn gray_detection_is_bounded_and_differential() {
    let params = DrillParams::fast();
    for seed in [42u64, 7, 1001] {
        let outcome = run_drill(seed, &params);
        let c = &outcome.canal;
        assert!(
            c.detect_windows <= 8,
            "seed {seed}: quarantine took {} windows",
            c.detect_windows
        );
        assert!(c.quarantine_cleared, "seed {seed}: quarantine never cleared after heal");
        // The sub-threshold asymmetric link fault must degrade only the
        // scripted direction and never trip a quarantine of its own.
        assert!(c.asym_forward_errors > 0, "seed {seed}: forward path never degraded");
        assert_eq!(c.asym_reverse_errors, 0, "seed {seed}: reverse path degraded");
    }
}
