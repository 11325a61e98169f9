//! # canal-bench
//!
//! The experiment harness: one runnable experiment per table/figure of the
//! paper (see DESIGN.md §3 for the full index). Each experiment returns an
//! [`ExperimentReport`]: the paper-shaped rows plus paper-vs-measured
//! [`Check`]s that EXPERIMENTS.md records.
//!
//! Run everything: `cargo run -p canal-bench --release --bin experiments`
//! Run one:        `cargo run -p canal-bench --release --bin experiments -- fig11`

#![forbid(unsafe_code)]

pub mod cli;
pub mod experiments;
pub mod harness;
pub mod microbench;

pub use harness::{Check, ExperimentReport};

/// All experiment ids in presentation order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "fig2", "fig3", "fig4", "fig5", "tab1", "tab2", "tab3", // motivation
    "fig10", "fig11", "fig12", "fig13", // performance & resources
    "fig14", "fig15", // control plane
    "fig8", // chaos recovery timeline
    "overload", // gateway overload control under a single-tenant surge
    "trace", // mesh-wide tracing: sampling, assembly, span-evidence RCA
    "rollout", // safe config rollout: canary blast radius vs blind pushes
    "handshake", // cert rotation waves, handshake storms, rollback-safe bundles
    "drill", // disaster drill: gray failure + asymmetric partition + graceful drain
    "policy", // tenant policy plane: bad-push blast radius + compiled match gates
    "failover", // controller crash recovery: journaled rollouts, epoch fencing, zombie race
    "fig16", "fig17", "fig18", "fig19", "fig20", "tab4", // cloud infra
    "tab5", // deployment costs
    "tab6", "tab7", // health checks
    "fig22", "fig23", "fig24", "fig25", "fig26", // appendix micro
    "fig27", "fig28", "fig29", "fig30", // offload/eBPF appendix
    "abl-chain", "abl-shuffle", "abl-tunnels", "abl-nagle", "abl-push",
    "abl-fallback", // design-choice ablations (not paper figures)
];

/// Run one experiment by id with the given seed.
pub fn run_experiment(id: &str, seed: u64) -> Option<ExperimentReport> {
    use experiments::*;
    Some(match id {
        "fig2" => motivation::fig2(seed),
        "fig3" => motivation::fig3(seed),
        "fig4" => motivation::fig4(seed),
        "fig5" => motivation::fig5(seed),
        "tab1" => motivation::tab1(seed),
        "tab2" => motivation::tab2(seed),
        "tab3" => motivation::tab3(seed),
        "fig10" => perf::fig10(seed),
        "fig11" => perf::fig11(seed),
        "fig12" => resource::fig12(seed),
        "fig13" => resource::fig13(seed),
        "fig14" => control::fig14(seed),
        "fig15" => control::fig15(seed),
        "fig8" => chaos::fig8(seed),
        "overload" => overload::overload(seed),
        "trace" => trace::trace(seed),
        "rollout" => rollout::rollout(seed),
        "handshake" => handshake::handshake(seed),
        "drill" => drill::drill(seed),
        "policy" => policy::policy(seed),
        "failover" => failover::failover(seed),
        "fig16" => cloud::fig16(seed),
        "fig17" => cloud::fig17(seed),
        "fig18" => cloud::fig18(seed),
        "fig19" => cloud::fig19(seed),
        "fig20" => cloud::fig20(seed),
        "tab4" => cloud::tab4(seed),
        "tab5" => costs::tab5(seed),
        "tab6" => health::tab6(seed),
        "tab7" => health::tab7(seed),
        "fig22" => micro::fig22(seed),
        "fig23" => micro::fig23(seed),
        "fig24" => micro::fig24(seed),
        "fig25" => micro::fig25(seed),
        "fig26" => micro::fig26(seed),
        "fig27" => offload::fig27(seed),
        "fig28" => offload::fig28(seed),
        "fig29" => offload::fig29(seed),
        "fig30" => offload::fig30(seed),
        "abl-chain" => ablations::abl_chain(seed),
        "abl-shuffle" => ablations::abl_shuffle(seed),
        "abl-tunnels" => ablations::abl_tunnels(seed),
        "abl-nagle" => ablations::abl_nagle(seed),
        "abl-push" => ablations::abl_push(seed),
        "abl-fallback" => ablations::abl_fallback(seed),
        _ => return None,
    })
}
