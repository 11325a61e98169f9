//! §5.3 resource consumption: Fig. 12 (crypto offload CPU saving) and
//! Fig. 13 (CPU cores used by Istio / Ambient / Canal).

use crate::harness::{Check, ExperimentReport};
use canal_crypto::accel::{AsymmetricBackend, LocalBatchBackend, SoftwareBackend};
use canal_crypto::keyserver::{KeyServerPlacement, RemoteKeyServerBackend};
use canal_mesh::arch::{build, Architecture, ClusterShape, Mesh, RequestCtx};
use canal_mesh::CostModel;
use canal_sim::output::{num, pct, ratio, Table};

/// Fig. 12 — on-node proxy CPU saved by local vs remote asymmetric-crypto
/// offloading, swept over requests-per-connection (which sets how much of
/// the proxy's work is offloadable).
pub(crate) fn fig12(_seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new("fig12", "CPU usage saving with crypto offloading");
    let software = SoftwareBackend::default();
    let local = LocalBatchBackend::default();
    let remote = RemoteKeyServerBackend::new(KeyServerPlacement::LocalAz);
    // Non-offloadable per-connection proxy work: session setup plus
    // per-request L4 + symmetric-record work.
    let per_request_us = 45.0;
    let setup_us = 100.0;
    let mut table = Table::new(
        "proxy CPU per connection (µs) and savings",
        &["req/conn", "software", "local", "remote", "local saving", "remote saving"],
    );
    let mut local_savings = Vec::new();
    let mut remote_savings = Vec::new();
    for &k in &[12u32, 16, 20, 25] {
        let fixed = setup_us + k as f64 * per_request_us;
        let sw = fixed + software.node_cpu_cost().as_micros_f64();
        let lo = fixed + local.node_cpu_cost().as_micros_f64();
        let re = fixed + remote.node_cpu_cost().as_micros_f64();
        let ls = 1.0 - lo / sw;
        let rs = 1.0 - re / sw;
        local_savings.push(ls);
        remote_savings.push(rs);
        table.row(&[k.to_string(), num(sw), num(lo), num(re), pct(ls), pct(rs)]);
    }
    report.tables.push(table);
    let l_lo = local_savings.iter().cloned().fold(f64::INFINITY, f64::min);
    let l_hi = local_savings.iter().cloned().fold(0.0, f64::max);
    let r_lo = remote_savings.iter().cloned().fold(f64::INFINITY, f64::min);
    let r_hi = remote_savings.iter().cloned().fold(0.0, f64::max);
    report.checks.push(Check::band(
        "local offload saving (min of range)",
        "43%~70%",
        l_lo,
        0.35,
        0.70,
    ));
    report.checks.push(Check::band(
        "remote offload saving (max of range)",
        "62%~70%",
        r_hi,
        0.55,
        0.80,
    ));
    report.checks.push(Check::cond(
        "remote saves more than local everywhere",
        "remote 62–70% vs local 43–70%",
        &format!("local {}–{}, remote {}–{}", pct(l_lo), pct(l_hi), pct(r_lo), pct(r_hi)),
        remote_savings.iter().zip(&local_savings).all(|(r, l)| r > l),
    ));
    report
}

/// Fig. 13 — CPU cores used (of 4) under growing workloads.
pub(crate) fn fig13(_seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new("fig13", "CPU usage of Istio, Ambient and Canal");
    let costs = CostModel::default;
    let istio = build(Architecture::Sidecar, costs());
    let ambient = build(Architecture::Ambient, costs());
    let canal = build(Architecture::Canal, costs());
    let shape = ClusterShape::paper_testbed();
    let ctx = RequestCtx::light();
    let cores = |arch: &Mesh, rps: f64| {
        (arch.background_cores(&shape) + rps * arch.mesh_cpu_per_request(&ctx).as_secs_f64())
            .min(4.0)
    };
    let mut table = Table::new(
        "cores used (of 4)",
        &["rps", "istio", "ambient", "canal", "istio/canal", "ambient/canal"],
    );
    let mut i_ratios = Vec::new();
    let mut a_ratios = Vec::new();
    for &rps in &[250.0, 500.0, 750.0, 1000.0, 1250.0] {
        let i = cores(&istio, rps);
        let a = cores(&ambient, rps);
        let c = cores(&canal, rps);
        i_ratios.push(i / c);
        a_ratios.push(a / c);
        table.row(&[
            num(rps),
            num(i),
            num(a),
            num(c),
            ratio(i / c),
            ratio(a / c),
        ]);
    }
    report.tables.push(table);
    let imin = i_ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    let imax = i_ratios.iter().cloned().fold(0.0, f64::max);
    let amin = a_ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    let amax = a_ratios.iter().cloned().fold(0.0, f64::max);
    report.checks.push(Check::band(
        "istio/canal CPU ratio (range min)",
        "12x~19x",
        imin,
        10.0,
        20.0,
    ));
    report.checks.push(Check::band(
        "istio/canal CPU ratio (range max)",
        "12x~19x",
        imax,
        10.0,
        22.0,
    ));
    report.checks.push(Check::band(
        "ambient/canal CPU ratio (range min)",
        "4.6x~7.2x",
        amin,
        4.0,
        7.5,
    ));
    report.checks.push(Check::band(
        "ambient/canal CPU ratio (range max)",
        "4.6x~7.2x",
        amax,
        4.2,
        8.0,
    ));
    report
}
