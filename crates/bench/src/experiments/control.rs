//! §5.4 control-plane overhead: Fig. 14 (configuration completion time) and
//! Fig. 15 (southbound bandwidth).

use crate::harness::{Check, ExperimentReport};
use canal_control::configure::ConfigPlane;
use canal_mesh::arch::{Architecture, ClusterShape};
use canal_sim::output::{num, ratio, Table};

/// Fig. 14 — P90 completion time for creating pods via an API call.
pub(crate) fn fig14(_seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new("fig14", "configuration completion time");
    let shape = ClusterShape::paper_testbed();
    let mut table = Table::new(
        "pod-creation completion (s)",
        &["new pods", "istio", "ambient", "canal", "istio/canal", "ambient/canal"],
    );
    let planes = [
        ConfigPlane::new(Architecture::Sidecar),
        ConfigPlane::new(Architecture::Ambient),
        ConfigPlane::new(Architecture::Canal),
    ];
    let mut worst = (0.0f64, f64::INFINITY, 0.0f64, f64::INFINITY);
    for &n in &[50usize, 100, 150, 250] {
        let t: Vec<f64> = planes
            .iter()
            .map(|p| p.pod_creation_completion(&shape, n).as_secs_f64())
            .collect();
        let ri = t[0] / t[2];
        let ra = t[1] / t[2];
        worst = (worst.0.max(ri), worst.1.min(ri), worst.2.max(ra), worst.3.min(ra));
        table.row(&[
            n.to_string(),
            num(t[0]),
            num(t[1]),
            num(t[2]),
            ratio(ri),
            ratio(ra),
        ]);
    }
    report.tables.push(table);
    report.checks.push(Check::band(
        "istio/canal completion (range max)",
        "1.5x~2.1x",
        worst.0,
        1.4,
        2.3,
    ));
    report.checks.push(Check::band(
        "istio/canal completion (range min)",
        "1.5x~2.1x",
        worst.1,
        1.3,
        2.2,
    ));
    report.checks.push(Check::band(
        "ambient/canal completion (range max)",
        "1.2x~1.5x",
        worst.2,
        1.1,
        1.6,
    ));
    report
}

/// Fig. 15 — southbound bandwidth during a routing-policy update.
pub(crate) fn fig15(_seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new("fig15", "southbound bandwidth overhead");
    let shape = ClusterShape::paper_testbed();
    let mut table = Table::new(
        "southbound bytes per routing update",
        &["setup", "targets", "bytes", "vs canal"],
    );
    let mut bytes = std::collections::BTreeMap::new();
    for kind in [Architecture::Sidecar, Architecture::Ambient, Architecture::Canal] {
        let r = ConfigPlane::new(kind).push_update(&shape);
        bytes.insert(kind.name(), (r.targets, r.southbound_bytes));
    }
    let canal = bytes["canal"].1 as f64;
    for kind in [Architecture::Sidecar, Architecture::Ambient, Architecture::Canal] {
        let (targets, b) = bytes[kind.name()];
        table.row(&[
            kind.name().to_string(),
            targets.to_string(),
            b.to_string(),
            ratio(b as f64 / canal),
        ]);
    }
    report.tables.push(table);
    report.checks.push(Check::band(
        "istio southbound / canal southbound",
        "9.8x",
        bytes["istio-sidecar"].1 as f64 / canal,
        7.0,
        13.0,
    ));
    report.checks.push(Check::band(
        "ambient southbound / canal southbound",
        "4.6x",
        bytes["ambient"].1 as f64 / canal,
        3.0,
        6.5,
    ));
    report
}
