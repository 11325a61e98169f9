//! # canal-cluster
//!
//! The Kubernetes-like multi-tenant cluster substrate the mesh architectures
//! run against. The paper's experiments depend on cluster *shape* — pod,
//! service and node counts, their ratios (≈2 pods per service, ≈15 pods per
//! node in production, §2.2), AZ placement, and lifecycle events — not on
//! kubelet internals, so that is what this crate models:
//!
//! * [`topology`] — tenants, VPCs, AZs, nodes, pods, services; builders that
//!   generate production-shaped clusters; lifecycle operations (create /
//!   remove / scale) that the control-plane experiments replay.
//! * [`dns`] — the customized DNS resolution of §4.2: requests resolve to
//!   healthy gateway backends in the client's AZ first, spilling to other
//!   AZs only when the local ones are all down.
//! * [`probe`] — the health-check framework: periodic probes, k-failure /
//!   m-success hysteresis, and per-target state the §6.1 aggregation
//!   machinery counts.
//! * [`graydetect`] — differential gray-failure detection: active probes
//!   fused with passive per-request evidence (EWMA error rate + latency
//!   quantile vs the peer median) into a flap-damped `Quarantined` verdict
//!   with cooloff-gated canary re-admission.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

#![warn(missing_docs)]

pub mod dns;
pub mod graydetect;
pub mod probe;
pub mod topology;

pub use dns::{CachingResolver, DnsView};
pub use graydetect::{GrayDetector, GrayPolicy, GrayVerdict};
