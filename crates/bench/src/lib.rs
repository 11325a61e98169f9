//! # canal-bench
//!
//! The experiment harness: one row of [`EXPERIMENTS`] per table/figure of
//! the paper and per robustness scenario (see DESIGN.md §3 for the full
//! index). Each experiment returns an [`ExperimentReport`]: the paper-shaped
//! rows plus paper-vs-measured [`Check`]s that EXPERIMENTS.md records. A
//! scenario is also held to the double-run contract of [`mod@scenario`].
//!
//! Run everything: `cargo run -p canal-bench --release --bin experiments`
//! Run one:        `cargo run -p canal-bench --release --bin experiments -- fig11`
//! Smoke a scenario: `... --bin experiments -- drill --fast --json target`

#![forbid(unsafe_code)]

pub mod cli;
pub mod experiments;
pub mod harness;
pub mod microbench;
pub mod scenario;

pub use harness::{Check, ExperimentReport};
use scenario::{Driver, Scenario};

/// One row of the experiment table.
pub struct Experiment {
    /// What `experiments <id>` and EXPERIMENTS.md call it.
    pub id: &'static str,
    /// One full-scale run's report.
    pub report: fn(u64) -> ExperimentReport,
    /// Set for a robustness scenario: these are the ids the runner drives
    /// twice, and that take `--fast` and `--json`.
    pub scenario: Option<Driver>,
}

const fn figure(id: &'static str, report: fn(u64) -> ExperimentReport) -> Experiment {
    Experiment { id, report, scenario: None }
}

const fn scenario<S: Scenario>() -> Experiment {
    Experiment {
        id: S::ID,
        report: scenario::report::<S>,
        scenario: Some(Driver { invariant: S::INVARIANT, drive: scenario::drive::<S> }),
    }
}

/// Every experiment, in presentation order.
pub const EXPERIMENTS: &[Experiment] = {
    use experiments::*;
    &[
        // motivation
        figure("fig2", motivation::fig2),
        figure("fig3", motivation::fig3),
        figure("fig4", motivation::fig4),
        figure("fig5", motivation::fig5),
        figure("tab1", motivation::tab1),
        figure("tab2", motivation::tab2),
        figure("tab3", motivation::tab3),
        // performance & resources
        figure("fig10", perf::fig10),
        figure("fig11", perf::fig11),
        figure("fig12", resource::fig12),
        figure("fig13", resource::fig13),
        // control plane
        figure("fig14", control::fig14),
        figure("fig15", control::fig15),
        // robustness scenarios
        scenario::<chaos::ChaosOutcome>(),
        scenario::<overload::SurgeOutcome>(),
        scenario::<trace::TraceOutcome>(),
        scenario::<rollout::BlastOutcome>(),
        scenario::<handshake::HandshakeOutcome>(),
        scenario::<drill::DrillOutcome>(),
        scenario::<policy::PolicyBlastOutcome>(),
        scenario::<failover::FailoverOutcome>(),
        // cloud infra
        figure("fig16", cloud::fig16),
        figure("fig17", cloud::fig17),
        figure("fig18", cloud::fig18),
        figure("fig19", cloud::fig19),
        figure("fig20", cloud::fig20),
        figure("tab4", cloud::tab4),
        // deployment costs
        figure("tab5", costs::tab5),
        // health checks
        figure("tab6", health::tab6),
        figure("tab7", health::tab7),
        // appendix micro
        figure("fig22", micro::fig22),
        figure("fig23", micro::fig23),
        figure("fig24", micro::fig24),
        figure("fig25", micro::fig25),
        figure("fig26", micro::fig26),
        // offload/eBPF appendix
        figure("fig27", offload::fig27),
        figure("fig28", offload::fig28),
        figure("fig29", offload::fig29),
        figure("fig30", offload::fig30),
        // design-choice ablations (not paper figures)
        figure("abl-chain", ablations::abl_chain),
        figure("abl-shuffle", ablations::abl_shuffle),
        figure("abl-tunnels", ablations::abl_tunnels),
        figure("abl-nagle", ablations::abl_nagle),
        figure("abl-push", ablations::abl_push),
        figure("abl-fallback", ablations::abl_fallback),
    ]
};

/// All experiment ids in presentation order.
pub const ALL_EXPERIMENTS: &[&str] = &{
    let mut ids = [""; EXPERIMENTS.len()];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = EXPERIMENTS[i].id;
        i += 1;
    }
    ids
};

/// The table row of `id`.
pub fn experiment(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// Run one experiment by id with the given seed.
pub fn run_experiment(id: &str, seed: u64) -> Option<ExperimentReport> {
    experiment(id).map(|e| (e.report)(seed))
}
