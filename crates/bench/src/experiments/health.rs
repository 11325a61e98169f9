//! §6.1 health-check experience: Tables 6 and 7.

use crate::harness::{Check, ExperimentReport};
use canal_gateway::health::{BackendProbes, HealthCheckPlan, ServiceProbes};
use canal_sim::output::{num, pct, Table};
use canal_sim::SimDuration;

/// The five production cases, reverse-engineered from the paper's Table 6/7
/// rows: each case is (backends B, replicas R, cores C, services, apps per
/// service, app-id stride, distinct app universe). The stride/universe pair
/// controls how much services' app sets overlap — the quantity the
/// service-level aggregation exploits. The same services are configured on
/// every backend of the case (the shuffle-shard placement of one hot tenant
/// slice).
fn cases() -> Vec<(&'static str, f64, HealthCheckPlan)> {
    fn plan(
        b: usize,
        r: usize,
        c: usize,
        services: usize,
        apps_per: usize,
        stride: usize,
        universe: u32,
    ) -> HealthCheckPlan {
        let svc_list: Vec<ServiceProbes> = (0..services)
            .map(|s| ServiceProbes {
                apps: (0..apps_per)
                    .map(|a| ((s * stride + a) as u32) % universe)
                    .collect(),
            })
            .collect();
        HealthCheckPlan {
            interval: SimDuration::from_secs(5),
            backends: (0..b)
                .map(|_| BackendProbes {
                    replicas: r,
                    cores_per_replica: c,
                    services: svc_list.clone(),
                })
                .collect(),
        }
    }
    vec![
        // name, app RPS (paper), plan solved to the paper's Table 7 row.
        ("Case1", 21.0, plan(4, 8, 16, 13, 8, 7, 92)),
        ("Case2", 4221.0, plan(4, 8, 14, 20, 29, 26, 520)),
        ("Case3", 385.0, plan(4, 8, 8, 23, 11, 11, 100_000)), // disjoint
        ("Case4", 496.0, plan(3, 6, 12, 16, 32, 19, 310)),
        ("Case5", 9224.0, plan(4, 8, 12, 8, 31, 31, 245)),
    ]
}

/// Table 6 — health checks vs app traffic.
pub(crate) fn tab6(_seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new("tab6", "excessive health checks vs app traffic");
    let paper_checks = [10_817.0, 52_122.0, 12_960.0, 22_107.0, 19_014.0];
    let mut table = Table::new(
        "app RPS vs health-check RPS",
        &["case", "app rps", "checks rps (model)", "checks rps (paper)", "ratio"],
    );
    let mut max_ratio: f64 = 0.0;
    let mut worst_err: f64 = 0.0;
    for (i, (name, app_rps, plan)) in cases().into_iter().enumerate() {
        let checks = plan.base_rps();
        let ratio = checks / app_rps;
        max_ratio = max_ratio.max(ratio);
        worst_err = worst_err.max((checks - paper_checks[i]).abs() / paper_checks[i]);
        table.row(&[
            name.to_string(),
            num(app_rps),
            num(checks),
            num(paper_checks[i]),
            num(ratio),
        ]);
    }
    report.tables.push(table);
    report.checks.push(Check::band(
        "max checks:app ratio",
        "up to 515x",
        max_ratio,
        400.0,
        650.0,
    ));
    report.checks.push(Check::band(
        "worst-case deviation from paper check RPS",
        "Table 6 magnitudes",
        worst_err,
        0.0,
        0.05,
    ));
    report
}

/// Table 7 — health-check reduction by multi-level aggregation.
pub(crate) fn tab7(_seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new("tab7", "health check reduction by aggregation");
    // Paper rows: (base, service-, core-, replica-) probes/s.
    let paper = [
        (10_817.0, 9_344.0, 584.0, 18.0),
        (52_122.0, 46_592.0, 3_328.0, 104.0),
        (12_960.0, 12_960.0, 1_620.0, 50.0),
        (22_107.0, 13_464.0, 1_122.0, 62.0),
        (19_014.0, 18_351.0, 1_624.0, 49.0),
    ];
    let mut table = Table::new(
        "probes/s at each aggregation level (model | paper)",
        &["case", "base", "service-", "core-", "replica-", "reduction"],
    );
    let mut min_reduction = f64::INFINITY;
    let mut worst_err: f64 = 0.0;
    for (i, (name, _, plan)) in cases().into_iter().enumerate() {
        let base = plan.base_rps();
        let service = plan.after_service_agg();
        let core = plan.after_core_agg();
        let replica = plan.after_replica_agg();
        let reduction = plan.reduction();
        min_reduction = min_reduction.min(reduction);
        assert!(base >= service && service >= core && core >= replica);
        let (pb, ps, pc, pr) = paper[i];
        for (m, p) in [(base, pb), (service, ps), (core, pc), (replica, pr)] {
            worst_err = worst_err.max((m - p).abs() / p);
        }
        table.row(&[
            name.to_string(),
            format!("{} | {}", num(base), num(pb)),
            format!("{} | {}", num(service), num(ps)),
            format!("{} | {}", num(core), num(pc)),
            format!("{} | {}", num(replica), num(pr)),
            pct(reduction),
        ]);
    }
    report.tables.push(table);
    report.checks.push(Check::band(
        "minimum reduction across cases",
        "≥99.6% (paper min 99.61%)",
        min_reduction,
        0.996,
        1.0,
    ));
    report.checks.push(Check::band(
        "worst cell deviation from Table 7",
        "all 20 cells of Table 7",
        worst_err,
        0.0,
        0.08,
    ));
    report
}
