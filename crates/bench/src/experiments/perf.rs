//! §5.2 performance comparison: Fig. 10 (light-load latency) and Fig. 11
//! (P99 latency vs RPS / max throughput).

use crate::harness::{find_knee, measure_at_load, Check, ExperimentReport};
use canal_mesh::arch::{build, Architecture, RequestCtx};
use canal_mesh::path::PathExecutor;
use canal_mesh::CostModel;
use canal_sim::output::{num, ratio, Table};
use canal_sim::SimRng;

/// Fig. 10 — end-to-end latency under light workloads (1 rps, 100 samples),
/// all four setups.
pub(crate) fn fig10(seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new("fig10", "latency under light workloads");
    let mut rng = SimRng::seed(seed);
    let ctx = RequestCtx::light();
    let mut table = Table::new(
        "light-load latency",
        &["setup", "unloaded (ms)", "measured mean (ms)", "vs canal"],
    );
    let mut means = std::collections::BTreeMap::new();
    for kind in Architecture::ALL {
        let arch = build(kind, CostModel::default());
        let unloaded =
            PathExecutor::unloaded_latency(&arch.request_steps(&ctx)).as_millis_f64();
        // 1 thread, 1 connection, 1 rps, 100 requests (the paper's method).
        let point = measure_at_load(&arch, &ctx, 1.0, 100.0, &mut rng);
        means.insert(kind.name(), (unloaded, point.mean_ms));
    }
    let canal_mean = means["canal"].1;
    for kind in Architecture::ALL {
        let (unloaded, mean) = means[kind.name()];
        table.row(&[
            kind.name().to_string(),
            num(unloaded),
            num(mean),
            ratio(mean / canal_mean),
        ]);
    }
    report.tables.push(table);
    report.checks.push(Check::band(
        "istio latency / canal latency",
        "1.7x",
        means["istio-sidecar"].1 / canal_mean,
        1.5,
        1.9,
    ));
    report.checks.push(Check::band(
        "ambient latency / canal latency",
        "1.3x",
        means["ambient"].1 / canal_mean,
        1.15,
        1.45,
    ));
    report.checks.push(Check::cond(
        "canal closest to no-mesh",
        "Canal's latency is the closest to the baseline",
        "ordering no-mesh < canal < ambient < istio",
        means["no-mesh"].1 < canal_mean
            && canal_mean < means["ambient"].1
            && means["ambient"].1 < means["istio-sidecar"].1,
    ));
    report
}

/// Fig. 11 — P99 latency under changing workloads; max RPS before the
/// latency spike (the knee). Canal's knee comes from the gateway packet
/// pipeline; Istio's from sidecar CPU saturation.
pub(crate) fn fig11(seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new("fig11", "latency under changing workloads");
    let mut rng = SimRng::seed(seed);
    let ctx = RequestCtx::light();
    let mut knees = std::collections::BTreeMap::new();
    let mut table = Table::new(
        "P99 latency (ms) vs offered RPS",
        &["setup", "rps", "p99 (ms)"],
    );
    for kind in [Architecture::Sidecar, Architecture::Ambient, Architecture::Canal] {
        let arch = build(kind, CostModel::default());
        let unloaded =
            PathExecutor::unloaded_latency(&arch.request_steps(&ctx)).as_millis_f64();
        // Knee = P99 exceeding 5x the unloaded latency.
        let (knee, curve) = find_knee(&arch, &ctx, 80_000.0, unloaded * 5.0, &mut rng);
        for p in curve.iter().filter(|p| p.rps > knee / 8.0) {
            table.row(&[kind.name().to_string(), num(p.rps), num(p.p99_ms)]);
        }
        knees.insert(kind.name(), knee);
    }
    report.tables.push(table);
    let mut t = Table::new("max RPS before latency spike", &["setup", "knee rps", "vs istio"]);
    for kind in [Architecture::Sidecar, Architecture::Ambient, Architecture::Canal] {
        t.row(&[
            kind.name().to_string(),
            num(knees[kind.name()]),
            ratio(knees[kind.name()] / knees["istio-sidecar"]),
        ]);
    }
    report.tables.push(t);
    report.checks.push(Check::band(
        "canal max RPS / istio max RPS",
        "12.3x",
        knees["canal"] / knees["istio-sidecar"],
        9.0,
        16.0,
    ));
    report.checks.push(Check::band(
        "canal max RPS / ambient max RPS",
        "2.3x",
        knees["canal"] / knees["ambient"],
        1.8,
        3.0,
    ));
    report
}
